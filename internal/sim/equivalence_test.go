package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/sched"
	"overprov/internal/synth"
)

// The cross-policy equivalence suite pins the engine's observable
// behaviour to goldens captured from the pre-optimization engine (the
// seed commit's event loop, before the dirty-flag/ring-queue/scratch
// -buffer overhaul). Any hot-path change that alters a single dispatch
// decision, failure draw, or counter shows up as a DeepEqual diff here.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//	go test ./internal/sim -run TestEngineEquivalence -update-golden

var updateGolden = flag.Bool("update-golden", false,
	"rewrite results/golden/*.json from the current engine instead of comparing")

// goldenDir is where the committed goldens live, relative to this
// package's directory.
const goldenDir = "../../results/golden"

type equivCase struct {
	policy sched.Policy
	seed   uint64
	load   float64
	// variant names the golden of a case that shares its policy with
	// another; empty means the policy name's prefix.
	variant string
	// runtime configures a learned runtime predictor, so completions move
	// the engine's rtGen and the policy view's predictions with it.
	runtime bool
	// visible is Config.MaxVisibleQueue; 0 keeps the default.
	visible int
}

func equivCases() []equivCase {
	var cases []equivCase
	// The last four pin what the policy-round memo and the reused view
	// key on: a policy that attempts out of queue order, a backfill
	// window shorter than the queue, a moving rtGen, and a visible window
	// shorter than the queue. Their goldens were captured on the engine
	// as it stood just before that memo; by then the first three cases
	// had held it to the seed commit's behaviour.
	for _, c := range []equivCase{
		{policy: sched.FCFS{}},
		{policy: sched.EASY{}},
		{policy: sched.Conservative{}},
		{policy: sched.SJF{}},
		{policy: sched.EASY{Window: 32}, variant: "easyw32"},
		{policy: sched.EASY{}, variant: "easyrt", runtime: true},
		{policy: sched.EASY{}, variant: "easyvis4", visible: 4},
	} {
		for _, seed := range []uint64{1, 2, 3} {
			for _, load := range []float64{0.75, 1.25} {
				c.seed, c.load = seed, load
				cases = append(cases, c)
			}
		}
	}
	return cases
}

func (c equivCase) name() string {
	pol := c.variant
	if pol == "" {
		pol = strings.SplitN(c.policy.Name(), "-", 2)[0]
	}
	return fmt.Sprintf("%s_s%d_l%03.0f", pol, c.seed, c.load*100)
}

// equivRun executes one configuration. Spurious failures are on so the
// run exercises the RNG, the retry path, and the head-of-queue requeue.
func (c equivCase) run(t *testing.T) *Result {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Seed = c.seed
	cfg.Jobs = 240
	cfg.Groups = 60
	gen, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.DropLargerThan(32).CompleteOnly()
	tr.SortBySubmit()
	cl, err := cluster.New(cluster.Spec{Nodes: 32, Mem: 24}, cluster.Spec{Nodes: 32, Mem: 32})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := tr.ScaleToOfferedLoad(c.load, cl.TotalNodes())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := estimate.NewSuccessiveApprox(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl})
	if err != nil {
		t.Fatal(err)
	}
	simCfg := Config{
		Trace:               scaled,
		Cluster:             cl,
		Estimator:           sa,
		Policy:              c.policy,
		SpuriousFailureProb: 0.2,
		MaxVisibleQueue:     c.visible,
		Seed:                c.seed,
	}
	if c.runtime {
		rt, err := estimate.NewTsafrirRuntime(estimate.TsafrirRuntimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		simCfg.Runtime = rt
	}
	return run(t, simCfg)
}

// TestEngineEquivalence replays every (policy, seed, load) cell and
// requires reflect.DeepEqual with the committed golden. Both sides pass
// through a JSON round trip so the comparison covers exactly the
// exported, serialisable behaviour (encoding/json round-trips float64
// bit-exactly).
func TestEngineEquivalence(t *testing.T) {
	for _, c := range equivCases() {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			res := c.run(t)
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(goldenDir, "equiv_"+c.name()+".json")
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			goldenRaw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to capture): %v", err)
			}
			var got, want Result
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(goldenRaw, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, &want) {
				t.Errorf("engine diverged from pre-optimization golden %s:\n got: completed=%d rejected=%d dispatches=%d resfail=%d spurious=%d lowered=%d makespan=%v useful=%g wasted=%g\nwant: completed=%d rejected=%d dispatches=%d resfail=%d spurious=%d lowered=%d makespan=%v useful=%g wasted=%g",
					path,
					got.Completed, got.Rejected, got.Dispatches, got.ResourceFailures, got.SpuriousFailures, got.LoweredDispatches, got.Makespan, got.UsefulNodeSeconds, got.WastedNodeSeconds,
					want.Completed, want.Rejected, want.Dispatches, want.ResourceFailures, want.SpuriousFailures, want.LoweredDispatches, want.Makespan, want.UsefulNodeSeconds, want.WastedNodeSeconds)
				for i := range got.Records {
					if i < len(want.Records) && !reflect.DeepEqual(got.Records[i], want.Records[i]) {
						t.Errorf("first diverging record %d:\n got %+v\nwant %+v", i, got.Records[i], want.Records[i])
						break
					}
				}
			}
		})
	}
}
