package overprov

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the benchmark against this tree.
// bench/ is a module of its own (overprov/bench, with replace
// overprov => ../), so `go test ./...` here never compiles it, and a
// change to an internal API the benchmark imports would otherwise show
// up only when the benchmark run fails. The surface it depends on, which
// keeps its names and signatures:
//
//   - wal.Log.RecordOutcome and RecordOutcomes, wal.Options.GroupCommit,
//     wal.Open, wal.OpenMirror and wal.Dump;
//   - estimate.ShardedSynchronized, NewShardedSynchronized,
//     DefaultShards, NewSynchronized and MergeStates;
//   - server.Config{Cluster, Estimator, Journal}, server.New,
//     NewWireServer, the JSON request/response types, MetricsView and
//     StatusView;
//   - router.New, Config, Backend and RouterMetrics;
//   - the schedd flags -addr -debug-addr -cluster -wire-addr -wal-dir
//     -wal-group-commit -save-interval -follow -route -metrics-addr.
//
// The flags are passed to the built binary, not compiled, so vet cannot
// see them: the benchmark's own tests (make benchcheck) and its run do.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
