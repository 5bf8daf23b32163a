package sim

import (
	"testing"
	"unsafe"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/sched"
	"overprov/internal/trace"
	"overprov/internal/units"
)

// These tests pin when a policy round's failed-attempt memo must and
// must not answer for a job: it may spare the estimator a question only
// while nothing a can't-fit dispatch reads has changed.

// TestJobStateSize pins the memo stamp to jobState's former padding: the
// FCFS sweep walks one jobState per trace job and slows measurably when
// they grow past a cache line.
func TestJobStateSize(t *testing.T) {
	if got := unsafe.Sizeof(jobState{}); got != 64 {
		t.Errorf("unsafe.Sizeof(jobState{}) = %d, want 64", got)
	}
}

// countingEstimator counts Estimate calls. It hides the inner
// estimator's handle fast path, so every question the engine asks
// arrives here.
type countingEstimator struct {
	inner     estimate.Estimator
	estimates int
}

func (c *countingEstimator) Name() string { return c.inner.Name() }
func (c *countingEstimator) Estimate(j *trace.Job) units.MemSize {
	c.estimates++
	return c.inner.Estimate(j)
}
func (c *countingEstimator) Feedback(o estimate.Outcome) { c.inner.Feedback(o) }

// roundProbe records, per scheduling round, the time and how many
// Estimate calls the policy's attempts cost.
type roundProbe struct {
	inner  sched.Policy
	est    *countingEstimator
	rounds []probedRound
}

type probedRound struct {
	at        units.Seconds
	estimates int
}

func (p *roundProbe) Name() string { return p.inner.Name() }
func (p *roundProbe) Schedule(v *sched.View, try sched.TryFunc) {
	before := p.est.estimates
	p.inner.Schedule(v, try)
	p.rounds = append(p.rounds, probedRound{at: v.Now, estimates: p.est.estimates - before})
}

// backfillPolicies are the policies whose attempts go through the
// engine's try; the memo lives there, so it must hold under each.
func backfillPolicies() []sched.Policy {
	return []sched.Policy{sched.EASY{}, sched.Conservative{}, sched.SJF{}}
}

func TestArrivalOnlyRoundAsksAboutTheArrivalOnly(t *testing.T) {
	// Job 1 holds the whole machine until t=1000; jobs 2-6 arrive one by
	// one behind it and none can start. Each of those rounds changes
	// nothing the earlier failed attempts read, so only the newcomer is
	// worth a question.
	jobs := []trace.Job{mkJob(1, 0, 1000, 8, 16, 8)}
	for i := 2; i <= 6; i++ {
		jobs = append(jobs, mkJob(i, float64(i), 10, 4, 16, 8))
	}
	est := &countingEstimator{inner: estimate.Identity{}}
	// EASY offers every queued job that fits beside the head's
	// reservation, every round; without the memo each would be asked
	// about again.
	probe := &roundProbe{inner: sched.EASY{}, est: est}
	res := run(t, Config{
		Trace: &trace.Trace{Jobs: jobs}, Cluster: smallCluster(t),
		Estimator: est, Policy: probe,
	})
	if res.Completed != len(jobs) {
		t.Fatalf("completed = %d, want %d", res.Completed, len(jobs))
	}
	checked := 0
	for _, r := range probe.rounds {
		// t=2 is the first round that started nothing; every arrival
		// after it, up to job 1's end, qualifies.
		if r.at > 2 && r.at < 1000 {
			checked++
			if r.estimates > 1 {
				t.Errorf("arrival-only round at t=%v made %d Estimate calls, want at most 1", r.at, r.estimates)
			}
		}
	}
	if checked != 4 {
		t.Fatalf("checked %d arrival-only rounds, want 4", checked)
	}
}

func TestBlockedJobsStartInTheRoundThatFreesTheirNodes(t *testing.T) {
	// Jobs 2 and 3 fail to fit at t=1 and t=2 and are remembered as
	// such; job 1's termination at t=100 must void both memories in the
	// same round.
	tr := &trace.Trace{Jobs: []trace.Job{
		mkJob(1, 0, 100, 8, 16, 8),
		mkJob(2, 1, 10, 4, 16, 8),
		mkJob(3, 2, 10, 4, 16, 8),
	}}
	for _, pol := range backfillPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			res := run(t, Config{
				Trace: tr, Cluster: smallCluster(t),
				Estimator: estimate.Identity{}, Policy: pol,
			})
			for _, i := range []int{1, 2} {
				if got := res.Records[i].Start; got != 100 {
					t.Errorf("job %d started at %v, want 100 (the round job 1 ended)", i+1, got)
				}
			}
		})
	}
}

func TestFeedbackAloneUnblocksAQueuedJob(t *testing.T) {
	// The 24MB pool idles throughout. Job 3 (group G, 4 nodes) asks for
	// 32MB and waits: the 32MB pool is held by job 1 (3 nodes, until
	// t=1000) and job 2 (group G, 1 node). Job 2's success at t=50 frees
	// a single 32MB node — not enough for job 3 at 32MB — but lowers G's
	// estimate to 24MB, which opens the idle pool. Job 4 arrives in
	// between so job 3's failed attempt is consulted at least once.
	group := func(j trace.Job) trace.Job { j.User, j.App = 2, 2; return j }
	tr := &trace.Trace{Jobs: []trace.Job{
		mkJob(1, 0, 1000, 3, 32, 32),
		group(mkJob(2, 1, 49, 1, 32, 8)),
		group(mkJob(3, 2, 10, 4, 32, 8)),
		mkJob(4, 10, 10, 2, 32, 32),
	}}
	for _, pol := range backfillPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			cl := smallCluster(t)
			sa, err := estimate.NewSuccessiveApprox(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl})
			if err != nil {
				t.Fatal(err)
			}
			res := run(t, Config{Trace: tr, Cluster: cl, Estimator: sa, Policy: pol})
			rec := res.Records[2]
			if rec.Start != 50 {
				t.Errorf("job 3 started at %v, want 50 (the round job 2's feedback arrived)", rec.Start)
			}
			if !rec.FinalAlloc.Eq(24) {
				t.Errorf("job 3 ran on %v nodes, want the idle 24MB pool", rec.FinalAlloc)
			}
		})
	}
}

// failOnceEstimator answers low until a failure is fed back, then high;
// between feedbacks it is the pure query Config.Estimator asks for.
type failOnceEstimator struct {
	low, high units.MemSize
	failed    bool
}

func (f *failOnceEstimator) Name() string { return "fail-once" }
func (f *failOnceEstimator) Estimate(*trace.Job) units.MemSize {
	if f.failed {
		return f.high
	}
	return f.low
}
func (f *failOnceEstimator) Feedback(o estimate.Outcome) {
	if !o.Success {
		f.failed = true
	}
}

func TestRequeuedHeadIsRetried(t *testing.T) {
	// Job 2 is remembered as not fitting while job 1 holds the machine,
	// starts on 8MB nodes at t=10, dies there (it uses 16MB) and returns
	// to the head of the queue. The retry must go out in the round of the
	// failure, at the estimator's corrected 32MB.
	cl, err := cluster.New(cluster.Spec{Nodes: 4, Mem: 8}, cluster.Spec{Nodes: 4, Mem: 32})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Jobs: []trace.Job{
		mkJob(1, 0, 10, 8, 8, 8),
		mkJob(2, 1, 100, 2, 32, 16),
	}}
	j := &Journal{}
	res := run(t, Config{
		Trace: tr, Cluster: cl, Estimator: &failOnceEstimator{low: 8, high: 32},
		Policy: sched.EASY{}, Journal: j, Seed: 3,
	})
	rec := res.Records[1]
	if !rec.Completed || rec.Dispatches != 2 || rec.ResourceFailures != 1 {
		t.Fatalf("job 2: completed=%v dispatches=%d resource failures=%d, want true/2/1",
			rec.Completed, rec.Dispatches, rec.ResourceFailures)
	}
	var failedAt units.Seconds
	for _, ev := range j.ForJob(2) {
		if ev.Kind == EventResourceFail {
			failedAt = ev.At
		}
	}
	if rec.Start != failedAt {
		t.Errorf("retry started at %v, want the failure's own round at %v", rec.Start, failedAt)
	}
}
