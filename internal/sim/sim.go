// Package sim is the trace-driven, discrete-event cluster simulator the
// reproduction's experiments run on. It wires together the paper's
// Figure 2 loop: jobs arrive, the estimator predicts their actual
// requirements, the scheduler matches the *estimated* requirement against
// the heterogeneous cluster, and completion feedback (implicit or
// explicit) flows back into the estimator.
//
// Failure semantics follow §3.1 exactly: a job launched on nodes with
// less memory than it actually uses fails after a time drawn uniformly
// in (0, runtime), occupies its nodes until then, and returns to the
// head of the queue. There is no preemption.
//
// # Hot path
//
// The engine is optimised for per-event incremental work (see DESIGN.md
// § Performance): scheduling rounds are gated on a dirty flag, the wait
// queue is a ring deque, the running set is index-tracked for O(1)
// removal, termination events are pooled, and the policy view (queue
// snapshot, running list, and its ExpectedEnd-ascending sort) lives in
// scratch buffers reused across rounds. All of this state is mutated
// from the single goroutine that owns the run — there is deliberately
// no mutex here (lockcheck: no guarded fields), and determinism is
// pinned by determinism_test.go plus the golden equivalence suite in
// equivalence_test.go.
package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/sched"
	"overprov/internal/trace"
	"overprov/internal/units"
)

// Config describes one simulation run.
type Config struct {
	// Trace supplies the jobs, sorted by submission time.
	Trace *trace.Trace
	// Cluster is the machine; it is mutated during the run, so pass a
	// fresh instance per run.
	Cluster *cluster.Cluster
	// Estimator predicts actual job requirements. estimate.Identity{}
	// reproduces classical matching (no estimation).
	//
	// Estimate is treated as a pure query of the estimator's state: the
	// engine caches estimates between Feedback calls, skips scheduling
	// rounds whose estimates provably cannot have changed, and, under a
	// policy, does not ask again about a job whose last attempt found no
	// room until a dispatch or a termination has changed what that
	// attempt read (the failed-attempt memo, see engine.stateGen).
	// All in-tree estimators satisfy this except Reinforcement, whose
	// ε-greedy Estimate consumes its own RNG — runs stay
	// seed-deterministic, but the arm-draw sequence depends on how
	// often the engine asks, and under a policy the memo makes that
	// less often still.
	Estimator estimate.Estimator
	// Policy picks jobs to dispatch; defaults to strict FCFS, the
	// paper's policy.
	Policy sched.Policy
	// ExplicitFeedback controls whether Outcome.Used is reported to the
	// estimator. The paper's simulations assume implicit feedback (the
	// general case).
	ExplicitFeedback bool
	// SpuriousFailureProb injects resource-unrelated failures (buggy
	// programs, faulty machines — §2.1's false positives) with the given
	// per-dispatch probability.
	SpuriousFailureProb float64
	// MaxAttempts caps dispatch attempts per job; beyond it the job is
	// dispatched with its full request, guaranteeing progress even under
	// adversarial estimates. 0 selects the default of 50.
	MaxAttempts int
	// MaxVisibleQueue bounds how many queued jobs a policy sees per
	// scheduling round (real schedulers window their queues too);
	// 0 selects the default of 1024. FCFS ignores it.
	MaxVisibleQueue int
	// Runtime optionally replaces the user's runtime estimates with
	// learned predictions for the scheduler's reservation and backfill
	// arithmetic (Tsafrir et al., the paper's related work [18]). Nil
	// keeps the user's ReqTime. Predictions never affect job execution —
	// only planning. Like Estimator.Estimate, EstimateRuntime must be a
	// pure query: the engine caches predictions between FeedbackRuntime
	// calls.
	Runtime estimate.RuntimeEstimator
	// Journal, when non-nil, receives the run's full event stream
	// (arrivals, dispatches, completions, failures, rejections) for
	// debugging and occupancy analysis.
	Journal *Journal
	// Seed drives failure times and spurious failures.
	Seed uint64
}

func (c *Config) validate() error {
	switch {
	case c.Trace == nil:
		return fmt.Errorf("sim: Config.Trace is nil")
	case c.Cluster == nil:
		return fmt.Errorf("sim: Config.Cluster is nil")
	case c.Estimator == nil:
		return fmt.Errorf("sim: Config.Estimator is nil")
	case c.SpuriousFailureProb < 0 || c.SpuriousFailureProb >= 1:
		return fmt.Errorf("sim: SpuriousFailureProb %g outside [0,1)", c.SpuriousFailureProb)
	case c.MaxAttempts < 0:
		return fmt.Errorf("sim: negative MaxAttempts %d", c.MaxAttempts)
	}
	return nil
}

// JobRecord is the audit trail of one job across the whole run.
type JobRecord struct {
	Job *trace.Job
	// Submit is the job's arrival time (copied for convenience).
	Submit units.Seconds
	// Start is when the job's final, successful execution began.
	Start units.Seconds
	// End is when the job finally completed.
	End units.Seconds
	// Dispatches counts execution attempts (1 = ran cleanly first try).
	Dispatches int
	// ResourceFailures counts executions that died from insufficient
	// allocated memory.
	ResourceFailures int
	// SpuriousFailures counts injected resource-unrelated failures.
	SpuriousFailures int
	// Lowered reports whether any dispatch used an estimate strictly
	// below the user's request.
	Lowered bool
	// FinalAlloc is the per-node capacity of the successful execution's
	// smallest node; FinalEst is the matching estimate (E′) that
	// execution was dispatched with.
	FinalAlloc, FinalEst units.MemSize
	// Completed is false for rejected jobs (jobs that can never fit the
	// cluster).
	Completed bool
}

// Result aggregates a finished run.
type Result struct {
	// Records holds one entry per trace job, in trace order.
	Records []JobRecord
	// Makespan is the time from the first submission to the last event.
	Makespan units.Seconds
	// FirstSubmit anchors the makespan.
	FirstSubmit units.Seconds
	// TotalNodes echoes the cluster size.
	TotalNodes int
	// UsefulNodeSeconds counts node-seconds spent on executions that
	// completed; WastedNodeSeconds counts node-seconds consumed by
	// failed executions.
	UsefulNodeSeconds, WastedNodeSeconds float64
	// RequestedMemSeconds is Σ requested-memory × nodes × elapsed over
	// successful executions; MatchedMemSeconds is the same with the
	// estimate the matcher used (E′ of Algorithm 1); UsedMemSeconds
	// with the true consumption. Matched < Requested is the matching
	// capacity the estimator reclaimed; Matched − Used is the residual
	// over-allocation.
	RequestedMemSeconds, MatchedMemSeconds, UsedMemSeconds float64
	// Dispatches counts all execution attempts; ResourceFailures and
	// SpuriousFailures divide the failed ones; LoweredDispatches counts
	// attempts with an estimate strictly below the request.
	Dispatches, ResourceFailures, SpuriousFailures, LoweredDispatches int
	// Completed and Rejected count jobs.
	Completed, Rejected int
	// EstimatorName echoes Config.Estimator.Name().
	EstimatorName string
	// PolicyName echoes the scheduling policy.
	PolicyName string
}

// jobState is the engine's mutable per-job bookkeeping.
type jobState struct {
	job *trace.Job
	// rec points into Result.Records, so per-job accounting is written
	// in place instead of copied out at the end of the run.
	rec      *JobRecord
	retry    bool
	enqueued bool
	// lastFailedEst remembers the capacity of the job's most recent
	// resource failure, so a retry never repeats a capacity that just
	// proved insufficient.
	lastFailedEst   units.MemSize
	hadResourceFail bool
	// rtEst caches the runtime prediction for the policy view; valid
	// while rtGen matches the engine's runtime-feedback generation.
	rtEst units.Seconds
	rtGen int
	// estHandle caches the job's similarity-group handle when the
	// estimator supports the handle fast path; -1 until resolved.
	estHandle int32
	// failGen is the engine's stateGen at which the job's last policy
	// attempt found no room; 0 means no such attempt. It sits in what
	// was padding after estHandle: the FCFS sweep walks every jobState
	// and is sensitive to their size (pinned by TestJobStateSize).
	failGen uint32
}

// endEvent is a scheduled termination.
type endEvent struct {
	at       units.Seconds
	seq      int
	js       *jobState
	alloc    cluster.Allocation
	est      units.MemSize
	success  bool
	spurious bool
	startAt  units.Seconds
	// runIdx is the event's current index in engine.running, kept in
	// sync by removeRunning so removal is O(1) instead of a scan.
	runIdx int
	// id is the event's permanent slot in engine.byID; heap entries
	// carry it instead of the pointer.
	id int32
}

// heapEntry is one termination as stored in the heap: the ordering key
// plus the event's id. Keeping entries pointer-free matters twice over:
// sift comparisons read the key from the entry itself instead of
// chasing an *endEvent (the old layout's cache misses), and swaps move
// plain values, so the write barrier that used to fire on every pointer
// swap (a measurable slice of the pre-overhaul profile) disappears.
// The entry is 16 bytes, so a 4-ary node's children share at most two
// cache lines. seq is narrowed to uint32: it would wrap only after 4.3
// billion dispatches, orders of magnitude beyond any simulated trace.
type heapEntry struct {
	at  units.Seconds
	seq uint32
	id  int32
}

// eventHeap is a hand-rolled 4-ary min-heap of terminations ordered by
// (time, seq). (time, seq) is a total order — seq is unique — so the
// pop sequence is fully determined by the comparator and independent of
// the heap's internal layout; replacing container/heap with typed
// sift-up/sift-down therefore cannot change results, and neither can
// the pointer-free entry layout or the wider fan-out (which halves the
// sift depth and keeps sibling entries on the same cache lines).
type eventHeap struct {
	h []heapEntry
}

func (h *eventHeap) len() int { return len(h.h) }

func entryBefore(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push adds a termination. It sifts a hole up and writes the entry once
// at its final position instead of swapping at every level — half the
// memory traffic of the swap form, same resulting order.
func (h *eventHeap) push(e heapEntry) {
	hh := append(h.h, e)
	h.h = hh
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entryBefore(e, hh[parent]) {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = e
}

// pop removes and returns the earliest termination's entry, sifting the
// displaced last element down hole-style (move the winning child up,
// place the element once at the end). The internal layout this leaves
// differs from the swap form's, but pops always return the (at, seq)
// minimum of the current contents, so the pop sequence — the only thing
// the simulation observes — is identical.
func (h *eventHeap) pop() heapEntry {
	hh := h.h
	top := hh[0]
	n := len(hh) - 1
	x := hh[n]
	hh = hh[:n]
	h.h = hh
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryBefore(hh[c], hh[min]) {
				min = c
			}
		}
		if !entryBefore(hh[min], x) {
			break
		}
		hh[i] = hh[min]
		i = min
	}
	hh[i] = x
	return top
}

// dirty bits accumulated between scheduling rounds; schedule consults
// them to skip rounds that provably cannot dispatch anything.
const (
	// dirtyArrival: a new job joined the tail of the queue.
	dirtyArrival uint8 = 1 << iota
	// dirtyRequeue: a failed job returned to the head of the queue.
	dirtyRequeue
	// dirtyFreed: a termination released nodes (and fed the estimator).
	dirtyFreed
)

// handleEstimator is the optional fast path implemented by estimators
// whose per-job state lives in similarity groups (SuccessiveApprox): the
// engine resolves a job's group handle once and reuses it for every
// later estimate and feedback, skipping the key derivation and hash
// probe those calls would otherwise repeat. The handle path answers
// exactly what the plain calls would — it is a lookup shortcut, not a
// different estimator.
type handleEstimator interface {
	GroupHandle(j *trace.Job) int32
	EstimateByHandle(h int32, j *trace.Job) units.MemSize
	FeedbackByHandle(h int32, o estimate.Outcome)
}

// engine is one run's state. Everything below is owned by the single
// goroutine driving Run; none of it is safe for concurrent use and none
// of it needs a lock.
type engine struct {
	cfg     Config
	keyed   handleEstimator
	rng     *rand.Rand
	queue   ringQueue
	events  eventHeap
	running []*endEvent
	result  Result
	now     units.Seconds
	seq     int

	// isFCFS selects the allocation-free fast path; needView gates the
	// policy-view mirror maintenance below.
	isFCFS   bool
	needView bool
	// dirty accumulates what changed since the last scheduling round;
	// blocked remembers that the FCFS head failed to start, so rounds
	// triggered only by arrivals are skipped until a node is freed or a
	// retry takes the head (bit-identical for pure estimators: nothing
	// the failing dispatch reads can have changed).
	dirty   uint8
	blocked bool

	// estGen counts Estimator.Feedback calls; rtGen counts
	// RuntimeEstimator.FeedbackRuntime calls. They version the caches
	// below: a cache entry tagged with the current generation is
	// exactly what the estimator would answer now.
	estGen int
	rtGen  int

	// stateGen versions everything a can't-fit dispatch reads: it moves
	// on every successful dispatch (pool free counts, the job's own retry
	// fields) and on every termination (pool free counts, estimator
	// feedback). A job whose failGen equals it would fail again, so the
	// policy's try answers false without asking. It starts at 1 so a
	// zero failGen never matches, and like heapEntry.seq it would wrap
	// only after 4.3 billion events.
	stateGen uint32

	// The policy view's queue, kept across scheduleWithPolicy rounds:
	// viewQueue[:viewValid] still mirrors the queue's first viewValid
	// positions, so a round rebuilds only the entries behind that
	// prefix. pushFront, a compaction (from its first dropped position)
	// and an rtGen move cut the prefix back.
	viewQueue []sched.QueuedJob
	viewValid int
	// Per-round state of try, the policy's callback: dropped marks the
	// visible positions that started or were rejected this round,
	// firstDropped is the lowest of them (or len(viewQueue) when there
	// is none). dropped is all false between rounds.
	dropped      []bool
	firstDropped int

	// runningView mirrors running index-for-index as the policies see
	// it; sortedByEnd caches its ExpectedEnd-ascending sort (rebuilt
	// only when runningGen moves). viewRTGen is the rtGen at which the
	// view's runtime predictions — the mirror's ExpectedEnds and the
	// viewQueue prefix's RuntimeEstimates — were computed.
	runningView []sched.RunningJob
	sortedByEnd []sched.RunningJob
	runningGen  int
	sortedGen   int
	viewRTGen   int

	// Head-estimate cache for the policy view's reservation arithmetic.
	headEstJob *trace.Job
	headEstGen int
	headEst    units.MemSize

	// free recycles endEvents: one is needed per in-flight execution,
	// not per dispatch over the whole run. byID resolves a heap entry's
	// id back to its event; it grows to the peak number of concurrent
	// executions and is written only when an event is first created.
	free []*endEvent
	byID []*endEvent
}

// Run executes the simulation to completion and returns the result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.FCFS{}
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 50
	}
	if cfg.MaxVisibleQueue == 0 {
		cfg.MaxVisibleQueue = 1024
	}
	e := &engine{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x853C49E6748FEA9B)),
	}
	e.keyed, _ = cfg.Estimator.(handleEstimator)
	_, e.isFCFS = cfg.Policy.(sched.FCFS)
	e.needView = !e.isFCFS
	e.sortedGen = -1
	e.stateGen = 1
	e.result.TotalNodes = cfg.Cluster.TotalNodes()
	e.result.EstimatorName = cfg.Estimator.Name()
	e.result.PolicyName = cfg.Policy.Name()

	jobs := cfg.Trace.Jobs
	e.result.Records = make([]JobRecord, len(jobs))
	states := make([]jobState, len(jobs))
	for i := range jobs {
		e.result.Records[i] = JobRecord{Job: &jobs[i], Submit: jobs[i].Submit}
		states[i] = jobState{job: &jobs[i], rec: &e.result.Records[i], estHandle: -1}
	}
	if len(jobs) > 0 {
		e.result.FirstSubmit = jobs[0].Submit
		e.now = jobs[0].Submit
	}

	nextArrival := 0
	lastEvent := e.now
	for nextArrival < len(states) || e.events.len() > 0 {
		// Pick the next event: terminations win ties so nodes free up
		// before same-instant arrivals are scheduled.
		if e.events.len() > 0 &&
			(nextArrival >= len(states) || e.events.h[0].at <= states[nextArrival].job.Submit) {
			ev := e.byID[e.events.pop().id]
			e.now = ev.at
			e.handleEnd(ev)
		} else {
			js := &states[nextArrival]
			nextArrival++
			e.now = js.job.Submit
			e.enqueue(js, false)
		}
		if e.now > lastEvent {
			lastEvent = e.now
		}
		e.schedule()
	}
	e.result.Makespan = lastEvent - e.result.FirstSubmit

	if err := cfg.Cluster.Check(); err != nil {
		return nil, fmt.Errorf("sim: cluster invariant broken after run: %w", err)
	}
	if free, total := cfg.Cluster.FreeNodes(), cfg.Cluster.TotalNodes(); free != total {
		return nil, fmt.Errorf("sim: %d of %d nodes still allocated after run", total-free, total)
	}
	return &e.result, nil
}

// enqueue adds a job to the wait queue; retried jobs go to the head, per
// the paper ("once it fails, the job returns to the head of the queue").
func (e *engine) enqueue(js *jobState, retry bool) {
	js.retry = retry
	js.enqueued = true
	if retry {
		e.queue.pushFront(js)
		e.viewValid = 0
		e.dirty |= dirtyRequeue
	} else {
		e.queue.pushBack(js)
		e.dirty |= dirtyArrival
		if e.cfg.Journal != nil {
			e.journal(Event{At: e.now, Kind: EventArrival, JobID: js.job.ID, Nodes: js.job.Nodes})
		}
	}
}

// estimate asks the configured estimator for js's capacity estimate,
// via the cached group handle when the estimator supports it.
func (e *engine) estimate(js *jobState) units.MemSize {
	if e.keyed != nil {
		if js.estHandle < 0 {
			js.estHandle = e.keyed.GroupHandle(js.job)
		}
		return e.keyed.EstimateByHandle(js.estHandle, js.job)
	}
	return e.cfg.Estimator.Estimate(js.job)
}

// feedback delivers an execution outcome to the estimator, via the
// cached group handle when the estimator supports it.
func (e *engine) feedback(js *jobState, o estimate.Outcome) {
	if e.keyed != nil {
		if js.estHandle < 0 {
			js.estHandle = e.keyed.GroupHandle(js.job)
		}
		e.keyed.FeedbackByHandle(js.estHandle, o)
		return
	}
	e.cfg.Estimator.Feedback(o)
}

// journal records an event when journaling is enabled.
func (e *engine) journal(ev Event) {
	if e.cfg.Journal != nil {
		e.cfg.Journal.add(ev)
	}
}

// handleEnd releases the allocation, reports feedback, and finishes or
// re-queues the job. The endEvent is recycled on return.
func (e *engine) handleEnd(ev *endEvent) {
	if err := e.cfg.Cluster.Release(ev.alloc); err != nil {
		// A release failure is a simulator bug; make it loud.
		panic(err)
	}
	e.dirty |= dirtyFreed
	e.stateGen++
	e.removeRunning(ev)

	elapsed := (e.now - ev.startAt).Sec()
	nodeSeconds := float64(ev.alloc.Nodes()) * elapsed
	if ev.success {
		e.result.UsefulNodeSeconds += nodeSeconds
		e.result.RequestedMemSeconds += ev.js.job.ReqMem.MBf() * nodeSeconds
		e.result.MatchedMemSeconds += ev.est.MBf() * nodeSeconds
		e.result.UsedMemSeconds += ev.js.job.UsedMem.MBf() * nodeSeconds
	} else {
		e.result.WastedNodeSeconds += nodeSeconds
	}

	if e.cfg.Journal != nil {
		kind := EventResourceFail
		switch {
		case ev.success:
			kind = EventComplete
		case ev.spurious:
			kind = EventSpuriousFail
		}
		e.journal(Event{At: e.now, Kind: kind, JobID: ev.js.job.ID,
			Nodes: ev.alloc.Nodes(), Estimate: ev.est, Allocated: ev.alloc.MinMem()})
	}

	o := estimate.Outcome{
		Job:       ev.js.job,
		Allocated: ev.alloc.MinMem(),
		Success:   ev.success,
	}
	if e.cfg.ExplicitFeedback {
		o.Explicit = true
		o.Used = ev.js.job.UsedMem
	}
	e.feedback(ev.js, o)
	e.estGen++

	js := ev.js
	success, startAt, est, minMem := ev.success, ev.startAt, ev.est, ev.alloc.MinMem()
	e.recycle(ev)

	if success {
		if e.cfg.Runtime != nil {
			e.cfg.Runtime.FeedbackRuntime(js.job, e.now-startAt)
			e.rtGen++
		}
		js.rec.Start = startAt
		js.rec.End = e.now
		js.rec.FinalAlloc = minMem
		js.rec.FinalEst = est
		js.rec.Completed = true
		e.result.Completed++
		return
	}
	e.enqueue(js, true)
}

// recycle drops a finished endEvent's references — so completed-job
// state is not retained by the pool — and returns it to the pool for
// the next dispatch. Only the reference fields are cleared: every value
// field is unconditionally overwritten by the next dispatch, and
// zeroing the whole struct would fire a write barrier over its pointer
// words on every completion.
func (e *engine) recycle(ev *endEvent) {
	ev.js = nil
	ev.alloc = cluster.Allocation{}
	e.free = append(e.free, ev)
}

// removeRunning deletes ev from the running set in O(1) via its tracked
// index, mirroring the move in the policy view. The swap-with-last
// ordering is exactly what the previous linear scan produced, so the
// running order (and everything downstream of it) is unchanged.
func (e *engine) removeRunning(ev *endEvent) {
	i, last := ev.runIdx, len(e.running)-1
	moved := e.running[last]
	e.running[i] = moved
	moved.runIdx = i
	e.running[last] = nil
	e.running = e.running[:last]
	if e.needView {
		e.runningView[i] = e.runningView[last]
		e.runningView[last] = sched.RunningJob{}
		e.runningView = e.runningView[:last]
	}
	e.runningGen++
}

// schedule runs one scheduling round under the configured policy — or
// proves it unnecessary and skips it. A round can only change the
// outcome if, since the last round, a node was freed, a job arrived, or
// a failed job was requeued; otherwise every input the policy and the
// dispatch path read (queue, estimator state, free capacity) is
// unchanged and the round is skipped.
func (e *engine) schedule() {
	if e.queue.len() == 0 {
		e.dirty = 0
		return
	}
	if e.dirty == 0 {
		return
	}
	if e.isFCFS {
		// Strict FCFS additionally ignores arrivals while the head is
		// blocked: a new tail job cannot unblock the head, and the
		// failing head attempt would re-read identical state. Only a
		// freed node or a head requeue can change the answer.
		if e.blocked && e.dirty&(dirtyFreed|dirtyRequeue) == 0 {
			e.dirty &^= dirtyArrival
			return
		}
		e.dirty = 0
		e.blocked = false
		for e.queue.len() > 0 {
			js := e.queue.at(0)
			started, rejected := e.dispatch(js)
			if rejected {
				e.queue.popFront()
				continue
			}
			if !started {
				e.blocked = true
				return
			}
			e.queue.popFront()
		}
		return
	}
	e.dirty = 0
	e.scheduleWithPolicy()
}

// policyRunningViews returns the running list in engine order and its
// ExpectedEnd-ascending sort, refreshing the caches only when the
// running set (or a runtime prediction) changed since they were built.
// The sort is the same sort.Slice over the same input order and
// comparator the policies used to run per round, so the cached result
// is bit-identical to resorting every round.
func (e *engine) policyRunningViews() (inOrder, byEnd []sched.RunningJob) {
	if e.cfg.Runtime != nil && e.viewRTGen != e.rtGen {
		for i := range e.runningView {
			r := &e.runningView[i]
			r.ExpectedEnd = r.Start + e.cfg.Runtime.EstimateRuntime(r.Job)
		}
		e.viewRTGen = e.rtGen
		e.runningGen++
	}
	if e.sortedGen != e.runningGen {
		e.sortedByEnd = append(e.sortedByEnd[:0], e.runningView...)
		sort.Slice(e.sortedByEnd, func(i, j int) bool {
			return e.sortedByEnd[i].ExpectedEnd < e.sortedByEnd[j].ExpectedEnd
		})
		e.sortedGen = e.runningGen
	}
	return e.runningView, e.sortedByEnd
}

// scheduleWithPolicy brings the policy view up to date in the engine's
// scratch buffers and honours the policy's dispatch choices. Its cost
// follows what changed since the last round: only the view entries
// behind the still-valid prefix are rebuilt, try skips jobs that failed
// at the current stateGen, and the queue is compacted only from the
// first position the round dropped.
func (e *engine) scheduleWithPolicy() {
	visible := e.queue.len()
	if visible > e.cfg.MaxVisibleQueue {
		visible = e.cfg.MaxVisibleQueue
	}
	if e.viewRTGen != e.rtGen {
		// The prefix carries predictions of an older generation;
		// policyRunningViews below brings viewRTGen up to date.
		e.viewValid = 0
	}
	e.viewQueue = e.viewQueue[:e.viewValid]
	for i := e.viewValid; i < visible; i++ {
		js := e.queue.at(i)
		q := sched.QueuedJob{Job: js.job, Retry: js.retry}
		if e.cfg.Runtime != nil {
			if js.rtGen != e.rtGen {
				js.rtEst = e.cfg.Runtime.EstimateRuntime(js.job)
				js.rtGen = e.rtGen
			}
			q.RuntimeEstimate = js.rtEst
		}
		e.viewQueue = append(e.viewQueue, q)
	}
	e.viewValid = visible
	view := sched.View{Now: e.now, Cluster: e.cfg.Cluster, Queue: e.viewQueue}
	if visible > 0 {
		// The head's estimate feeds backfilling reservation arithmetic;
		// it can only change when the estimator absorbs feedback.
		head := e.queue.at(0)
		if e.headEstJob != head.job || e.headEstGen != e.estGen {
			e.headEst = e.estimate(head)
			e.headEstJob, e.headEstGen = head.job, e.estGen
		}
		view.Queue[0].Estimate = e.headEst
	}
	view.Running, view.RunningByEnd = e.policyRunningViews()

	if len(e.dropped) < visible {
		e.dropped = make([]bool, 2*visible)
	}
	e.firstDropped = visible
	e.cfg.Policy.Schedule(&view, e.try)

	if first := e.firstDropped; first < visible {
		e.queue.compact(first, visible, e.dropped)
		clear(e.dropped[first:visible])
		e.viewValid = first
	}
}

// try is the sched.TryFunc of the current round: it attempts the queued
// job at pos and records started and rejected positions for the round's
// compaction. A job that found no room at the current stateGen is
// refused without a second attempt — dispatch's can't-fit path has no
// side effects and reads only what stateGen versions (given a pure
// Estimate, as Config.Estimator asks), so the attempt would fail again.
func (e *engine) try(pos int) bool {
	if pos < 0 || pos >= len(e.viewQueue) || e.dropped[pos] {
		return false
	}
	js := e.queue.at(pos)
	if js.failGen == e.stateGen {
		return false
	}
	started, rejected := e.dispatch(js)
	if !started && !rejected {
		js.failGen = e.stateGen
		return false
	}
	e.dropped[pos] = true
	if pos < e.firstDropped {
		e.firstDropped = pos
	}
	return started
}

// dispatch estimates, allocates, and starts a job. It returns
// started=false when the cluster has no room right now, and
// rejected=true when the job can never run (its estimate exceeds what an
// idle cluster offers) — such jobs are dropped so they cannot block the
// queue forever.
func (e *engine) dispatch(js *jobState) (started, rejected bool) {
	j := js.job
	est := e.estimate(js)
	if js.hadResourceFail && est.Eq(js.lastFailedEst) {
		// The estimator restored a capacity that this very job just
		// failed with (Algorithm 1 with a frozen learning rate and a
		// within-group usage spread — the paper's §2.3 J1/J2
		// limitation). Re-running at the same capacity is guaranteed to
		// fail again, so resubmit with the user's own request, as a
		// production scheduler would.
		est = j.ReqMem
	}
	if js.rec.Dispatches >= e.cfg.MaxAttempts {
		// Progress guarantee: after too many failures, fall back to the
		// user's request.
		est = j.ReqMem
	}
	if !e.cfg.Cluster.FitsAtAll(j.Nodes, est) {
		js.rec.Completed = false
		e.result.Rejected++
		if e.cfg.Journal != nil {
			e.journal(Event{At: e.now, Kind: EventReject, JobID: j.ID, Nodes: j.Nodes, Estimate: est})
		}
		return false, true
	}
	alloc, ok := e.cfg.Cluster.Allocate(j.Nodes, est)
	if !ok {
		return false, false
	}

	js.enqueued = false
	e.stateGen++
	js.rec.Dispatches++
	e.result.Dispatches++
	if est.Less(j.ReqMem) {
		js.rec.Lowered = true
		e.result.LoweredDispatches++
	}
	if js.rec.Dispatches == 1 {
		js.rec.Start = e.now
	}

	if e.cfg.Journal != nil {
		e.journal(Event{At: e.now, Kind: EventDispatch, JobID: j.ID,
			Nodes: j.Nodes, Estimate: est, Allocated: alloc.MinMem()})
	}

	insufficient := !j.UsedMem.Fits(alloc.MinMem())
	spurious := e.cfg.SpuriousFailureProb > 0 && e.rng.Float64() < e.cfg.SpuriousFailureProb
	ev := e.newEvent()
	ev.seq, ev.js, ev.alloc, ev.est, ev.startAt = e.nextSeq(), js, alloc, est, e.now
	ev.spurious = spurious && !insufficient
	switch {
	case insufficient || spurious:
		ev.success = false
		// §3.1: "it fails after a random time, drawn uniformly between
		// zero and the execution run-time of that job".
		ev.at = e.now + units.Seconds(e.rng.Float64()*j.Runtime.Sec())
		if insufficient {
			js.rec.ResourceFailures++
			e.result.ResourceFailures++
			js.hadResourceFail = true
			js.lastFailedEst = est
		} else {
			js.rec.SpuriousFailures++
			e.result.SpuriousFailures++
		}
	default:
		ev.success = true
		ev.at = e.now + j.Runtime
	}
	e.events.push(heapEntry{at: ev.at, seq: uint32(ev.seq), id: ev.id})
	ev.runIdx = len(e.running)
	e.running = append(e.running, ev)
	if e.needView {
		expected := j.ReqTime
		if e.cfg.Runtime != nil {
			expected = e.cfg.Runtime.EstimateRuntime(j)
		}
		e.runningView = append(e.runningView, sched.RunningJob{
			Job:         j,
			Start:       e.now,
			ExpectedEnd: e.now + expected,
			Nodes:       alloc.Nodes(),
			MinMem:      alloc.MinMem(),
		})
	}
	e.runningGen++
	return true, false
}

// newEvent returns a pooled endEvent, or a fresh one (registered in
// byID) when the pool is dry.
func (e *engine) newEvent() *endEvent {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	ev := &endEvent{id: int32(len(e.byID))}
	e.byID = append(e.byID, ev)
	return ev
}

func (e *engine) nextSeq() int {
	e.seq++
	return e.seq
}
