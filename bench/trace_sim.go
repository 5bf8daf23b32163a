package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"overprov/internal/estimate"
	"overprov/internal/experiments"
	"overprov/internal/metrics"
	"overprov/internal/sched"
	"overprov/internal/sim"
	"overprov/internal/synth"
	"overprov/internal/trace"
	"overprov/internal/units"
)

// timedPolicy times a policy's Schedule calls and, separately, the engine's
// try callbacks they make, so the policy's own share can be told apart.
type timedPolicy struct {
	inner        sched.Policy
	calls, tries int
	total, inTry time.Duration
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Schedule(v *sched.View, try sched.TryFunc) {
	begin := time.Now()
	p.calls++
	p.inner.Schedule(v, func(pos int) bool {
		t0 := time.Now()
		ok := try(pos)
		p.inTry += time.Since(t0)
		p.tries++
		return ok
	})
	p.total += time.Since(begin)
}

// timedEstimator counts and times estimator calls. It hides the inner
// estimator's GroupHandle methods, so the simulator falls off its handle
// fast path: a traced pass pays a key hash per call that an untraced one
// does not.
type timedEstimator struct {
	inner                estimate.Estimator
	estimates, feedbacks int
	total                time.Duration
}

func (e *timedEstimator) Name() string { return e.inner.Name() }

func (e *timedEstimator) Estimate(j *trace.Job) units.MemSize {
	t0 := time.Now()
	m := e.inner.Estimate(j)
	e.total += time.Since(t0)
	e.estimates++
	return m
}

func (e *timedEstimator) Feedback(o estimate.Outcome) {
	t0 := time.Now()
	e.inner.Feedback(o)
	e.total += time.Since(t0)
	e.feedbacks++
}

// traceSim adds the simulator layers' ledger to run.res: one wrapped run of
// the first window at the workload's middle load under its policy, the
// set-up pieces timed alone, and the sweep's parallel efficiency.
func traceSim(w workload, run *simRun, outDir string) error {
	tr := newTracer()
	r := run.res
	timed := func(name string, fn func() error) (time.Duration, error) {
		id := tr.begin(name, -1)
		begin := time.Now()
		err := fn()
		d := time.Since(begin)
		tr.end(id)
		return d, err
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Set-up pieces: generation, and the trace codecs a file-driven run uses.
	cfg := run.in.scale.TraceCfg
	var raw *trace.Trace
	d, err := timed("synth.generate", func() (err error) { raw, err = synth.Generate(cfg); return })
	if err != nil {
		return err
	}
	r.set("synth.generate_ms", ms(d), raw.Len())
	var swf, swfb bytes.Buffer
	if d, err = timed("trace.write_swf", func() error { return trace.WriteSWF(&swf, raw) }); err != nil {
		return err
	}
	r.set("trace.write_swf_ms", ms(d), raw.Len())
	if d, err = timed("trace.read_swf", func() error { _, err := trace.ReadSWF(bytes.NewReader(swf.Bytes())); return err }); err != nil {
		return err
	}
	r.set("trace.read_swf_ms", ms(d), raw.Len())
	if err := trace.WriteBinary(&swfb, raw); err != nil {
		return err
	}
	if d, err = timed("trace.read_swfb", func() error { _, err := trace.ReadBinary(bytes.NewReader(swfb.Bytes())); return err }); err != nil {
		return err
	}
	r.set("trace.read_swfb_ms", ms(d), raw.Len())

	// One wrapped run with the paper's estimator.
	cl, err := paperCluster()
	if err != nil {
		return err
	}
	scaled, err := run.in.windows[0].ScaleToOfferedLoad(w.Loads[len(w.Loads)/2], cl.TotalNodes())
	if err != nil {
		return err
	}
	sa, err := estimate.NewSuccessiveApprox(estimate.SuccessiveApproxConfig{Alpha: 2, Beta: 0, Round: cl})
	if err != nil {
		return err
	}
	pol := &timedPolicy{inner: w.Policy}
	est := &timedEstimator{inner: sa}
	var policy sched.Policy = pol
	if _, fcfs := w.Policy.(sched.FCFS); fcfs {
		// sim recognises sched.FCFS by type and inlines it; a wrapper would
		// push the run onto the generic policy-view path (about 70 times
		// slower at load 1.0), which no FCFS run takes. The policy stays
		// bare and the sched.* rows read 0.
		policy = w.Policy
		fmt.Println("  traced sim pass: sched.FCFS is inlined by sim, so it is not wrapped and sched.*, sim.dispatch_s read 0")
	}
	var res *sim.Result
	runD, err := timed("sim.run", func() (err error) {
		res, err = sim.Run(sim.Config{Trace: scaled, Cluster: cl, Estimator: est, Policy: policy, Seed: run.in.scale.Seed})
		return
	})
	if err != nil {
		return err
	}
	fmt.Println("  traced sim pass: the timing estimator wrapper disables sim's handle fast path, so estimate time here is an upper bound")
	scheduleSelf := pol.total - pol.inTry
	r.set("sim.run_s", runD.Seconds(), scaled.Len())
	r.set("sim.self_share", (runD-scheduleSelf-est.total).Seconds()/runD.Seconds(), 1)
	r.set("sim.dispatches", float64(res.Dispatches), 1)
	r.set("sim.resource_failures", float64(res.ResourceFailures), 1)
	r.set("sim.dispatch_s", pol.inTry.Seconds(), pol.tries)
	r.set("sched.schedule_calls", float64(pol.calls), 1)
	r.set("sched.schedule_self_s", scheduleSelf.Seconds(), pol.calls)
	r.set("sched.try_calls", float64(pol.tries), 1)
	r.set("estimate.sim_estimate_calls", float64(est.estimates), 1)
	r.set("estimate.sim_feedback_calls", float64(est.feedbacks), 1)
	if d, err = timed("metrics.summarize", func() error { _ = metrics.Summarize(res); return nil }); err != nil {
		return err
	}
	r.set("metrics.summarize_ms", ms(d), len(res.Records))

	// Allocate and release alone, on the same jobs and machine.
	fresh, err := paperCluster()
	if err != nil {
		return err
	}
	begin := time.Now()
	n := 0
	for i := range scaled.Jobs {
		j := &scaled.Jobs[i]
		if a, ok := fresh.Allocate(j.Nodes, j.ReqMem); ok {
			if err := fresh.Release(a); err != nil {
				return err
			}
			n++
		}
	}
	r.set("cluster.alloc_release_ns", float64(time.Since(begin))/float64(n), n)

	// Parallel efficiency: each load point alone on one worker, against the
	// untraced sweep's wall time on all workers.
	var serial time.Duration
	for _, load := range w.Loads {
		one := run.in.scale
		one.Loads = []float64{load}
		t0 := time.Now()
		for _, win := range run.in.windows {
			if _, err := experiments.LoadSweepWithPolicy(one, win, paperCluster, w.Policy); err != nil {
				return err
			}
		}
		serial += time.Since(t0)
	}
	workers := experiments.Workers()
	if workers > len(w.Loads) {
		workers = len(w.Loads)
	}
	r.set("experiments.sweep_wall_s", run.sweepWall.Seconds(), w.Passes)
	r.set("experiments.parallel_efficiency", serial.Seconds()/(float64(workers)*run.sweepWall.Seconds()), len(w.Loads))

	// A pass makes millions of policy and estimator calls, so those are
	// kept as the counters above; the span file holds the coarse steps.
	path := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	return nil
}
