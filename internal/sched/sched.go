// Package sched defines the scheduling policies that decide which queued
// jobs to dispatch. The paper's simulations use strict first-come
// first-served with no preemption; EASY backfilling and shortest-job
// first implement the "more aggressive scheduling policies" its §3.1
// leaves as future work.
//
// The resource estimator is deliberately outside this package: the paper
// stresses that estimation "is independent and can be integrated with
// different scheduling policies". A policy only decides *which* jobs to
// attempt; the simulation engine estimates, allocates, and reports back
// whether each attempt started.
package sched

import (
	"sort"

	"overprov/internal/cluster"
	"overprov/internal/trace"
	"overprov/internal/units"
)

// QueuedJob is a waiting job as a policy sees it.
type QueuedJob struct {
	// Job is the underlying trace record.
	Job *trace.Job
	// Estimate is the capacity the estimator currently assigns the job;
	// the engine fills it (at least for the queue head) before invoking
	// the policy so reservation arithmetic can use it.
	Estimate units.MemSize
	// RuntimeEstimate is the predicted runtime the engine assigns the
	// job (the user's ReqTime, or a learned prediction when a runtime
	// estimator is configured); zero means "use Job.ReqTime".
	RuntimeEstimate units.Seconds
	// Retry reports whether the job is back at the head after a failed
	// execution (the paper returns failed jobs to the head of the
	// queue).
	Retry bool
}

// PredictedRuntime returns the runtime the scheduler should plan with:
// the engine's prediction when present, else the user's estimate.
func (q QueuedJob) PredictedRuntime() units.Seconds {
	if q.RuntimeEstimate > 0 {
		return q.RuntimeEstimate
	}
	return q.Job.ReqTime
}

// RunningJob is an executing job as a policy sees it.
type RunningJob struct {
	Job *trace.Job
	// Start is when the job began executing.
	Start units.Seconds
	// ExpectedEnd is the engine's best public knowledge of when the job
	// will finish: start + the user's runtime estimate (policies must
	// not see true runtimes or failure times).
	ExpectedEnd units.Seconds
	// Nodes is the allocated node count.
	Nodes int
	// MinMem is the smallest per-node capacity among its nodes.
	MinMem units.MemSize
}

// View is the scheduling state passed to a policy at each scheduling
// point.
type View struct {
	Now units.Seconds
	// Queue is the wait queue in priority order (head first).
	Queue []QueuedJob
	// Running lists executing jobs.
	Running []RunningJob
	// RunningByEnd, when non-nil, is Running sorted ascending by
	// ExpectedEnd. The engine maintains it incrementally across rounds
	// so backfill policies do not re-sort every release list per round;
	// policies must treat it as read-only and fall back to sorting
	// Running themselves when it is nil (e.g. hand-built views in
	// tests).
	RunningByEnd []RunningJob
	// Cluster exposes current free capacity.
	Cluster *cluster.Cluster
}

// runningByEnd returns the running jobs sorted ascending by ExpectedEnd,
// using the engine-maintained cache when present.
func (v *View) runningByEnd() []RunningJob {
	if v.RunningByEnd != nil {
		return v.RunningByEnd
	}
	ends := append([]RunningJob(nil), v.Running...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].ExpectedEnd < ends[j].ExpectedEnd })
	return ends
}

// TryFunc attempts to dispatch the queued job at the given queue
// position (an index into View.Queue). It returns true when the job was
// allocated and started. Positions remain valid for the whole Schedule
// call even after earlier positions start; attempting a position twice
// is an error the engine reports via false.
type TryFunc func(pos int) bool

// Policy selects jobs to dispatch at a scheduling point by calling try.
// Implementations must be deterministic functions of the view.
type Policy interface {
	Name() string
	Schedule(v *View, try TryFunc)
}

// FCFS is the paper's policy: strict first-come first-served. Only the
// queue head may start; if it does, the next head is considered, and the
// first head that cannot start blocks the queue.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Schedule starts queue heads until one fails to fit.
func (FCFS) Schedule(v *View, try TryFunc) {
	for pos := range v.Queue {
		if !try(pos) {
			return
		}
	}
}

// SJF dispatches the job with the shortest user runtime estimate first,
// blocking (like FCFS) when its best candidate does not fit. Ties are
// broken by queue order, keeping the policy deterministic and
// starvation-bounded on finite traces.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "sjf" }

// Schedule attempts jobs in ascending requested-runtime order until one
// fails to start.
func (SJF) Schedule(v *View, try TryFunc) {
	entries := make([]sjfEntry, len(v.Queue))
	for i := range entries {
		entries[i] = sjfEntry{key: v.Queue[i].PredictedRuntime(), pos: int32(i)}
	}
	stableSortByKey(entries)
	for _, e := range entries {
		if !try(int(e.pos)) {
			return
		}
	}
}

// sjfEntry pairs a queue position with its precomputed sort key, so the
// sort compares plain floats instead of re-deriving the runtime estimate
// at every comparison.
type sjfEntry struct {
	key units.Seconds
	pos int32
}

// stableSortByKey sorts entries by key ascending, equal keys keeping
// their original (queue) order — a bottom-up merge sort. The stable
// permutation of a sequence is unique, so this yields exactly the order
// sort.SliceStable produced, without the reflection-based swapping and
// O(n log n) comparator closure calls.
func stableSortByKey(a []sjfEntry) {
	n := len(a)
	if n < 2 {
		return
	}
	buf := make([]sjfEntry, n)
	src, dst := a, buf
	for width := 1; width < n; width *= 2 {
		for i := 0; i < n; i += 2 * width {
			mid, hi := i+width, i+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			l, r, o := i, mid, i
			for l < mid && r < hi {
				// Strict < keeps the left run first on ties: stability.
				if src[r].key < src[l].key {
					dst[o] = src[r]
					r++
				} else {
					dst[o] = src[l]
					l++
				}
				o++
			}
			for l < mid {
				dst[o] = src[l]
				l++
				o++
			}
			for r < hi {
				dst[o] = src[r]
				r++
				o++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// EASY is EASY backfilling: the queue head gets a reservation at the
// earliest time enough nodes will be free (per the running jobs' user
// runtime estimates), and later jobs may start out of order only if they
// cannot delay that reservation — either they finish (per their own user
// estimate) before the reservation, or they fit into nodes the head will
// not need.
//
// Reservation arithmetic is done on node counts eligible for the head's
// estimated memory; the candidate's own fit is verified by the actual
// allocation attempt, so heterogeneity never causes a false start.
type EASY struct {
	// Window bounds how many queued jobs may be examined for
	// backfilling; 0 means the whole queue.
	Window int
}

// Name implements Policy.
func (EASY) Name() string { return "easy-backfill" }

// Schedule implements the EASY algorithm.
func (e EASY) Schedule(v *View, try TryFunc) {
	head := 0
	// Phase 1: start consecutive heads while they fit.
	for head < len(v.Queue) && try(head) {
		head++
	}
	if head >= len(v.Queue) {
		return
	}
	// Phase 2: reservation for the blocked head.
	headJob := v.Queue[head]
	shadow, extra := e.reservation(v, headJob)

	limit := len(v.Queue)
	if e.Window > 0 && head+1+e.Window < limit {
		limit = head + 1 + e.Window
	}
	for pos := head + 1; pos < limit; pos++ {
		cand := v.Queue[pos]
		endsBeforeShadow := v.Now+cand.PredictedRuntime() <= shadow
		fitsExtra := cand.Job.Nodes <= extra
		if !endsBeforeShadow && !fitsExtra {
			continue
		}
		if try(pos) && !endsBeforeShadow {
			extra -= cand.Job.Nodes
		}
	}
}

// reservation computes the head's shadow time (earliest time enough
// eligible nodes are free) and the extra eligible nodes left over at
// that time.
func (e EASY) reservation(v *View, head QueuedJob) (units.Seconds, int) {
	eligible := 0
	for i, np := 0, v.Cluster.NumPools(); i < np; i++ {
		if p := v.Cluster.PoolAt(i); head.Estimate.Fits(p.Mem) {
			eligible += p.Free()
		}
	}
	if eligible >= head.Job.Nodes {
		// The head fit by node count but its allocation attempt failed
		// (memory shape); be conservative: no backfilling beyond
		// shorter-than-now jobs.
		return v.Now, 0
	}
	// Walk running jobs in expected-end order, accumulating released
	// eligible nodes until the head fits.
	ends := v.runningByEnd()
	free := eligible
	for _, r := range ends {
		if head.Estimate.Fits(r.MinMem) {
			free += r.Nodes
		}
		if free >= head.Job.Nodes {
			return r.ExpectedEnd, free - head.Job.Nodes
		}
	}
	// Even a drained cluster cannot fit the head (should have been
	// rejected); suppress backfilling.
	return v.Now, 0
}
