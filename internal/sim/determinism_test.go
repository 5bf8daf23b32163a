package sim

import (
	"reflect"
	"testing"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/sched"
	"overprov/internal/synth"
)

// The detrand analyzer guarantees no code path in sim/synth/estimate
// can reach ambient randomness or the wall clock; these tests pin the
// complementary runtime half of the determinism invariant: identical
// seeds replay bit-identically, and the seed actually matters.

func detCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	// The paper's Figure 5–7 machine: big enough for the synthetic
	// workload's full-machine jobs (smaller clusters reject everything
	// and the RNG is never consulted).
	c, err := cluster.New(cluster.Spec{Nodes: 512, Mem: 32}, cluster.Spec{Nodes: 512, Mem: 24})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// detConfig is the determinism tests' run: the paper's estimator under
// FCFS on a trace generated from a fixed synth seed, so only the sim
// seed varies between calls.
func detConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	// Records hold *trace.Job pointers, and the engine must never mutate
	// the jobs themselves; every call generates the same trace.
	cfg := synth.SmallConfig()
	cfg.Seed = 7
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := estimate.NewSuccessiveApprox(estimate.SuccessiveApproxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Trace:     tr,
		Cluster:   detCluster(t),
		Estimator: sa,
		// Spurious failures make the sim seed load-bearing: failure
		// points are drawn from the run's RNG.
		SpuriousFailureProb: 0.3,
		Seed:                seed,
	}
}

func detRun(t *testing.T, seed uint64) *Result {
	t.Helper()
	return run(t, detConfig(t, seed))
}

// TestSameSeedReplaysIdentically is the replay-determinism regression
// gate: two full simulations from the same seeds must agree on every
// record, counter and metric.
func TestSameSeedReplaysIdentically(t *testing.T) {
	a := detRun(t, 42)
	b := detRun(t, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverged:\nrun1: completed=%d failed=%d makespan=%v wasted=%g\nrun2: completed=%d failed=%d makespan=%v wasted=%g",
			a.Completed, a.ResourceFailures, a.Makespan, a.WastedNodeSeconds,
			b.Completed, b.ResourceFailures, b.Makespan, b.WastedNodeSeconds)
	}
}

// TestImpureEstimatorUnderBackfillReplaysIdentically covers the one
// in-tree estimator whose Estimate is not a pure query: Reinforcement
// draws its arm from its own RNG at every call, so which arms it draws
// depends on how often the engine asks — and under a policy the
// failed-attempt memo makes the engine ask less. How often it asks is
// itself a deterministic function of the run, so same seeds must still
// replay bit-identically.
func TestImpureEstimatorUnderBackfillReplaysIdentically(t *testing.T) {
	once := func() *Result {
		cfg := detConfig(t, 42)
		rl, err := estimate.NewReinforcement(estimate.ReinforcementConfig{Seed: 5, Round: cfg.Cluster})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Estimator, cfg.Policy = rl, sched.EASY{}
		return run(t, cfg)
	}
	a, b := once(), once()
	if a.LoweredDispatches == 0 {
		t.Fatal("Reinforcement never lowered an estimate; the run does not exercise its RNG")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed Reinforcement + EASY runs diverged:\nrun1: completed=%d failed=%d makespan=%v wasted=%g\nrun2: completed=%d failed=%d makespan=%v wasted=%g",
			a.Completed, a.ResourceFailures, a.Makespan, a.WastedNodeSeconds,
			b.Completed, b.ResourceFailures, b.Makespan, b.WastedNodeSeconds)
	}
}

// TestDifferentSeedDiverges guards the test above against vacuity: if
// the seed stopped reaching the failure-point sampling, same-seed
// equality would hold trivially.
func TestDifferentSeedDiverges(t *testing.T) {
	a := detRun(t, 42)
	b := detRun(t, 43)
	if reflect.DeepEqual(a, b) {
		t.Fatal("runs with different seeds produced identical results; the seed no longer reaches the RNG")
	}
}

// TestSynthGenerationIsSeedDeterministic pins the workload generator:
// the same synth seed must yield an identical job stream.
func TestSynthGenerationIsSeedDeterministic(t *testing.T) {
	gen := func(seed uint64) []float64 {
		cfg := synth.SmallConfig()
		cfg.Seed = seed
		tr, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 4*len(tr.Jobs))
		for _, j := range tr.Jobs {
			out = append(out, j.Submit.Sec(), j.ReqMem.MBf(), j.UsedMem.MBf(), j.Runtime.Sec())
		}
		return out
	}
	if !reflect.DeepEqual(gen(11), gen(11)) {
		t.Error("same-seed synthetic traces differ")
	}
	if reflect.DeepEqual(gen(11), gen(12)) {
		t.Error("different-seed synthetic traces are identical")
	}
}
