package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/experiments"
	"overprov/internal/trace"
	"overprov/internal/units"
)

// paperCluster is the Figure 5-7 machine: 512×32 MB + 512×24 MB.
func paperCluster() (*cluster.Cluster, error) {
	return cluster.CM5Heterogeneous(24 * units.MB)
}

// simInputs is everything a sim workload derives from the seed.
type simInputs struct {
	// windows are the stretches of the trace a pass sweeps, one by one.
	windows []*trace.Trace
	scale   experiments.Scale
}

func (in *simInputs) jobs() int {
	n := 0
	for _, w := range in.windows {
		n += w.Len()
	}
	return n
}

func prepareSim(w workload, seed uint64) (*simInputs, error) {
	tr, scale, err := generateTrace(seed)
	if err != nil {
		return nil, err
	}
	scale.Loads = w.Loads
	in := &simInputs{scale: scale}
	if w.Windows == 0 {
		in.windows = []*trace.Trace{tr}
		return in, nil
	}
	// Prepared renumbers jobs 1..n in submit order, so an id range is a
	// stretch of consecutive submissions.
	stride := tr.Len() / w.Windows
	for k := 0; k < w.Windows; k++ {
		lo := k * stride
		win := tr.Filter(func(j *trace.Job) bool { return j.ID > lo && j.ID <= lo+w.TraceJobs })
		if win.Len() != w.TraceJobs {
			return nil, fmt.Errorf("window %d holds %d jobs, want %d", k, win.Len(), w.TraceJobs)
		}
		in.windows = append(in.windows, win)
	}
	return in, nil
}

// simRun is what one untraced run of a sim workload produced.
type simRun struct {
	res               results
	checks            checks
	attempted, failed int
	in                *simInputs
	// sweepWall is the median wall time of one pass.
	sweepWall time.Duration
}

// simSetupRepeats is how often a sim run generates its trace; generation
// is all the set-up there is, and it is short, so the median is over more
// repeats than a serve workload can afford.
const simSetupRepeats = 5

// golden pins, per sim workload, each window's summaries at seed 1.
type golden map[string][]*experiments.LoadSweepResult

func goldenPath(benchDir string) string { return filepath.Join(benchDir, "golden.json") }

func loadGolden(benchDir string) (golden, error) {
	raw, err := os.ReadFile(goldenPath(benchDir))
	if err != nil {
		return nil, err
	}
	g := golden{}
	return g, json.Unmarshal(raw, &g)
}

// runSim generates the trace, runs w.Passes load sweeps and checks that
// every pass returns the same summaries (and, at seed 1, the pinned ones).
func runSim(w workload, seed uint64, benchDir string, updateGolden bool) (*simRun, error) {
	run := &simRun{res: results{}}
	var setups []float64
	for i := 0; i < simSetupRepeats; i++ {
		begin := time.Now()
		in, err := prepareSim(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
		run.in = in
	}
	run.res.set("setup_s", median(setups), len(setups))

	var (
		first  []*experiments.LoadSweepResult
		passes []time.Duration
	)
	for p := 0; p < w.Passes; p++ {
		t0 := time.Now()
		var got []*experiments.LoadSweepResult
		for k, win := range run.in.windows {
			r, err := experiments.LoadSweepWithPolicy(run.in.scale, win, paperCluster, w.Policy)
			run.attempted++
			if err != nil {
				run.failed++
				run.checks.failf("pass %d window %d: %v", p, k, err)
				break
			}
			got = append(got, r)
		}
		passes = append(passes, time.Since(t0))
		switch {
		case len(got) != len(run.in.windows):
		case first == nil:
			first = got
		case !reflect.DeepEqual(first, got):
			run.checks.failf("pass %d returned different summaries than pass 0 at the same seed", p)
		}
	}
	if first == nil {
		return run, fmt.Errorf("no sweep pass succeeded")
	}
	perPass := len(w.Loads) * 2 * run.in.jobs()
	lat := summarize(passes)
	// The true median (the mean of the middle two of an even count), not the
	// nearest rank: of four passes that would be the second fastest.
	lat.P50 = median(millis(passes))
	if lat.HighPct == 50 {
		lat.High = lat.P50
	}
	run.sweepWall = time.Duration(lat.P50 * float64(time.Millisecond))
	fmt.Printf("  %d passes x %d windows x %d loads x 2 estimators = %d simulated jobs per pass, median pass %.3fs\n",
		w.Passes, len(run.in.windows), len(w.Loads), perPass, run.sweepWall.Seconds())
	fmt.Printf("  the simulator has one operation: the latency metrics are the wall time of one pass (p50, and p%g over n=%d)\n", lat.HighPct, lat.N)
	// The median pass, so that one disturbed pass does not move the figure.
	run.res.set("jobs_per_s", float64(perPass)/run.sweepWall.Seconds(), perPass*w.Passes)
	run.res.set("submit_p50_ms", lat.P50, lat.N)
	run.res.set("submit_p99_ms", lat.High, lat.N)
	run.res.set("complete_p50_ms", lat.P50, lat.N)
	run.res.set("complete_p99_ms", lat.High, lat.N)
	run.kpis(first)

	if seed == 1 {
		if updateGolden {
			g, err := loadGolden(benchDir)
			if err != nil {
				g = golden{}
			}
			g[w.Name] = first
			raw, err := json.MarshalIndent(g, "", " ")
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(goldenPath(benchDir), append(raw, '\n'), 0o644); err != nil {
				return nil, err
			}
		}
		g, err := loadGolden(benchDir)
		if err != nil {
			return nil, err
		}
		if want := g[w.Name]; len(want) == 0 {
			run.checks.failf("golden.json pins nothing for %s", w.Name)
		} else if !reflect.DeepEqual(want, first) {
			run.checks.failf("summaries at seed 1 differ from the values pinned in golden.json")
		}
	}
	return run, nil
}

// kpis reduces the estimated curves' summaries to the paper's KPIs. The
// summaries count lowered jobs, not lowered dispatches, so on the sim
// workloads lowered_dispatch_share is the share of completed jobs that ran
// at least once below their request.
func (run *simRun) kpis(windows []*experiments.LoadSweepResult) {
	var dispatches, failures, completed, rejected, lowered, gain float64
	for _, r := range windows {
		for _, s := range r.Estimated {
			dispatches += float64(s.Dispatches)
			failures += s.ResourceFailureRate * float64(s.Dispatches)
			completed += float64(s.Completed)
			rejected += float64(s.Rejected)
			lowered += s.LoweredJobFraction * float64(s.Completed)
		}
		gain += r.SaturationGain()
	}
	run.res.set("failed_ops_share", float64(run.failed)/float64(run.attempted), run.attempted)
	run.res.set("failed_exec_share", failures/dispatches, int(dispatches))
	run.res.set("lost_job_share", rejected/(completed+rejected), int(completed+rejected))
	run.res.set("lowered_dispatch_share", lowered/completed, int(completed))
	run.res.set("util_gain_at_saturation", gain/float64(len(windows)), len(windows))
}
