// Package server embeds the paper's Figure 2 loop in a deployable
// scheduler daemon: jobs are submitted over HTTP, matched against the
// heterogeneous cluster using *estimated* requirements, and completion
// reports feed the estimator — exactly the integration the paper
// prescribes ("we envision a resource estimation phase prior to resource
// allocation"), but in wall-clock time instead of simulation.
//
// The API is JSON over HTTP (stdlib only):
//
//	POST /api/v1/jobs                submit {user, app, nodes, req_mem_mb, req_time_s}
//	POST /api/v1/jobs:batch          submit {"jobs": [...]} in one request
//	GET  /api/v1/jobs/{id}           job state
//	POST /api/v1/jobs/{id}/complete  report {success, used_mem_mb}
//	POST /api/v1/complete:batch      report {"completions": [...]} in one request
//	GET  /api/v1/status              cluster and queue state
//	GET  /api/v1/estimates           learned similarity-group state
//	GET  /api/v1/healthz             readiness (503 while draining)
//
// Scheduling is strict FCFS with the paper's failure handling: a job
// whose completion is reported unsuccessful re-enters the queue at the
// head and is re-dispatched with the (restored) estimate.
//
// # Fault tolerance
//
// The serving path degrades instead of failing (DESIGN.md §12). When a
// durable feedback journal is configured (Config.Journal, backed by
// internal/wal), every acked completion is appended to it *before* the
// estimator trains, so a crash replays exactly the acked feedback
// stream. When the journal or a fallible estimator errors at serve
// time, the request still succeeds: estimation falls back to the user's
// requested capacity — the paper's no-estimation baseline — and the
// event is counted in Metrics. The worst failure mode of the whole
// estimation layer is therefore the classical scheduler, never an
// outage.
//
// # Locking
//
// The daemon has four locking domains (DESIGN.md §7, §13):
//
//   - s.mu guards the job table, the FCFS queue and the lifetime
//     counters — in-memory bookkeeping only. It is never held across an
//     estimator call, a cluster-pool lock, JSON encoding/decoding, or
//     I/O, and is never held together with any other lock.
//   - s.rotMu makes each feedback event's journal-append + train pair
//     atomic with respect to snapshot rotation: feedback holds the read
//     side across both steps, and Quiesce (which cmd/schedd routes WAL
//     rotation through) takes the write side. Without it a rotation
//     could snapshot estimator state that lacks a just-journaled record
//     and then delete the journal generation holding it — losing an
//     acked, fsynced feedback event across a crash.
//   - the estimator's own locks (estimate.Synchronized's mutex or
//     estimate.ShardedSynchronized's per-shard RWMutexes) and the
//     journal's internal mutex (wal.Log). Both are acquired only under
//     s.rotMu or under no lock at all.
//   - the per-pool cluster locks inside cluster.Shared (rank 50),
//     taken by Allocate/Release/pool snapshots with no other lock
//     held.
//
// The order is acyclic: s.rotMu ≺ wal.Log's mutex ≺ estimator locks;
// s.mu ≺ nothing; pool locks ≺ nothing.
//
// Dispatch never runs under s.mu. Submissions and completions push
// admission nodes onto a lock-free MPSC stack and a single-flight
// token elects one goroutine to run the combining dispatch pass (see
// admit.go); only that holder mutates the FCFS queue, so the pass
// needs no head-revalidation, and the requeued-failing-job race of the
// previous design (a concurrent dispatcher beating the feedback to the
// restored estimate) is gone: a failed job is unreachable until its
// completion handler, which runs feedback first, pushes the requeue
// node.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/trace"
	"overprov/internal/units"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed" // done, unsuccessfully (terminal after MaxAttempts)
	StateRejected JobState = "rejected"
)

// SubmitRequest is the POST /jobs payload (and one element of the
// jobs:batch payload).
type SubmitRequest struct {
	User     int     `json:"user"`
	App      int     `json:"app"`
	Nodes    int     `json:"nodes"`
	ReqMemMB float64 `json:"req_mem_mb"`
	ReqTimeS float64 `json:"req_time_s"`
}

// validate is the per-item check submitJobs applies on every submit
// path.
func (r *SubmitRequest) validate() error {
	if r.Nodes <= 0 || r.ReqMemMB <= 0 {
		return fmt.Errorf("nodes and req_mem_mb must be positive (got %d, %g)", r.Nodes, r.ReqMemMB)
	}
	return nil
}

// CompleteRequest is the POST /jobs/{id}/complete payload.
type CompleteRequest struct {
	Success bool `json:"success"`
	// UsedMemMB is optional explicit feedback; ignored unless the
	// server runs with explicit feedback enabled.
	UsedMemMB float64 `json:"used_mem_mb,omitempty"`
}

// JobView is the externally visible job state.
type JobView struct {
	ID        int64    `json:"id"`
	State     JobState `json:"state"`
	User      int      `json:"user"`
	App       int      `json:"app"`
	Nodes     int      `json:"nodes"`
	ReqMemMB  float64  `json:"req_mem_mb"`
	EstMemMB  float64  `json:"est_mem_mb,omitempty"`
	AllocMB   float64  `json:"alloc_min_mem_mb,omitempty"`
	Attempts  int      `json:"attempts"`
	QueuePos  int      `json:"queue_pos,omitempty"`
	Rejection string   `json:"rejection,omitempty"`
}

// StatusView is the GET /status payload.
type StatusView struct {
	Cluster   string     `json:"cluster"`
	FreeNodes int        `json:"free_nodes"`
	Total     int        `json:"total_nodes"`
	Queued    int        `json:"queued"`
	Running   int        `json:"running"`
	Estimator string     `json:"estimator"`
	Pools     []PoolView `json:"pools"`
	// Lifetime counters.
	Done              int `json:"done"`
	Failed            int `json:"failed"`
	Rejected          int `json:"rejected"`
	Dispatches        int `json:"dispatches"`
	LoweredDispatches int `json:"lowered_dispatches"`
	// ReclaimedMBNodes is Σ (requested − matched) × nodes over all
	// dispatches: the matching capacity estimation freed so far.
	ReclaimedMBNodes float64 `json:"reclaimed_mb_nodes"`
}

// PoolView is one capacity pool's state.
type PoolView struct {
	MemMB float64 `json:"mem_mb"`
	Total int     `json:"total"`
	Free  int     `json:"free"`
}

// Config wires a Server.
type Config struct {
	Cluster *cluster.Cluster
	// Estimator serves estimates and learns from feedback. An estimator
	// that is not already safe for concurrent use (estimate.ConcurrencySafe)
	// is wrapped in estimate.NewSynchronized at construction, because the
	// server calls it outside its own lock.
	Estimator estimate.Estimator
	// ExplicitFeedback forwards reported usage to the estimator.
	ExplicitFeedback bool
	// MaxAttempts bounds re-dispatches of a failing job before it is
	// marked terminally failed; 0 selects 10.
	MaxAttempts int
	// Journal, when non-nil, receives every acked completion outcome
	// before the estimator trains on it (write-ahead). An append error
	// degrades durability — the completion is still acked and the
	// estimator still learns — and is counted in Metrics.
	Journal FeedbackLog
}

// FeedbackLog is the durable feedback journal the server writes ahead
// of estimator training; *wal.Log implements it, and the fault-injection
// harness wraps it. Each call journals one completion request's
// outcomes — a single completion is a group of one — as one append
// group: one commit ticket, one fsync, one error covering every record.
type FeedbackLog interface {
	RecordOutcomes(outcomes []estimate.Outcome) error
}

// job is the server's internal record. spec and view.ID are immutable
// after creation; everything else is guarded by Server.mu.
type job struct {
	view  JobView
	alloc cluster.Allocation
	spec  SubmitRequest
}

// Server is the scheduler daemon core. The job table lives behind
// s.mu; the estimator is called with no lock held (see the package
// comment for the lock order).
type Server struct {
	// mu guards the job table and counters. It is the exclusive apex of
	// the canonical lock hierarchy (DESIGN.md §7): nothing acquires
	// another lock and no estimator or WAL durability call runs while
	// it is held — the lockorder analyzer enforces both.
	//overprov:lock rank=10 exclusive
	mu sync.Mutex
	// rotMu orders feedback against snapshot rotation: the read side
	// spans one outcome's journal append + estimator training, the write
	// side (Quiesce) spans a rotation, so a snapshot never lands between
	// the two halves of a feedback event (see the package comment).
	//overprov:lock rank=20 rotation
	rotMu    sync.RWMutex
	cfg      Config
	est      estimate.ConcurrencySafe
	fallible estimate.Fallible // non-nil when est has an error path
	estName  string
	// shared is the concurrent allocation view of cfg.Cluster (per-pool
	// rank-50 locks); after New the server allocates exclusively
	// through it and cfg.Cluster serves only as the estimator's
	// immutable capacity ladder.
	shared *cluster.Shared
	// admit, dispToken and admitBuf implement the MPSC admission queue
	// and the single-flight combining dispatcher (admit.go). admitBuf
	// is scratch used only by the dispatch-token holder.
	admit     admitStack
	dispToken atomic.Int32
	admitBuf  []*admission
	// queue is the FCFS queue. Its contents are guarded by s.mu, but
	// only the dispatch-token holder adds or removes entries; everyone
	// else (viewLocked, handleStatus) just reads under s.mu.
	nextID      int64
	queue       []*job
	jobs        map[int64]*job
	maxAttempts int
	counters    struct {
		done, failed, rejected int
		dispatches, lowered    int
		reclaimedMBNodes       float64
	}
	// Serving counters, updated without s.mu.
	requests  atomic.Uint64
	feedbacks atomic.Uint64
	inflight  atomic.Int64
	// Fault-tolerance counters (see Metrics).
	walRecords        atomic.Uint64
	walErrors         atomic.Uint64
	degradedEstimates atomic.Uint64
	degradedFeedbacks atomic.Uint64
	releaseErrors     atomic.Uint64
	draining          atomic.Bool
}

// New builds the daemon core.
func New(cfg Config) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("server: Config.Cluster is nil")
	}
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("server: Config.Estimator is nil")
	}
	ma := cfg.MaxAttempts
	if ma == 0 {
		ma = 10
	}
	if ma < 1 {
		return nil, fmt.Errorf("server: MaxAttempts must be ≥ 1, got %d", cfg.MaxAttempts)
	}
	est, ok := cfg.Estimator.(estimate.ConcurrencySafe)
	if !ok {
		est = estimate.NewSynchronized(cfg.Estimator)
	}
	s := &Server{
		cfg:         cfg,
		est:         est,
		estName:     est.Name(),
		shared:      cluster.NewShared(cfg.Cluster),
		jobs:        make(map[int64]*job),
		maxAttempts: ma,
	}
	// Cache the estimator's error surface once: the dispatch hot path
	// should not repeat the type assertion per estimate.
	s.fallible, _ = est.(estimate.Fallible)
	return s, nil
}

// Handler returns the HTTP handler for the daemon API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/jobs:batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("POST /api/v1/jobs/{id}/complete", s.handleComplete)
	mux.HandleFunc("POST /api/v1/complete:batch", s.handleCompleteBatch)
	mux.HandleFunc("GET /api/v1/status", s.handleStatus)
	mux.HandleFunc("GET /api/v1/estimates", s.handleEstimates)
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	return s.countRequests(mux)
}

// countRequests feeds the requests-served and in-flight metrics. The
// in-flight gauge is what cmd/schedd uses to report how many requests
// a graceful shutdown drained versus aborted.
func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// handleSubmit is a jobs:batch of one: it decodes its own payload and
// renders its own response, and submitJobs does the rest.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	var out [1]batchOutcome
	s.submitJobs([]SubmitRequest{req}, out[:])
	writeOutcome(w, http.StatusCreated, out[0])
}

// handleComplete is a complete:batch of one, like handleSubmit.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	var out [1]batchOutcome
	s.completeJobs([]CompletionItem{{ID: id, Success: req.Success, UsedMemMB: req.UsedMemMB}}, out[:])
	writeOutcome(w, http.StatusOK, out[0])
}

// writeOutcome renders one batch-core outcome as a single-endpoint
// response: the job view with okStatus, or the item's error with the
// item's own status.
func writeOutcome(w http.ResponseWriter, okStatus int, o batchOutcome) {
	if !o.ok {
		httpError(w, o.status, "%s", o.errMsg)
		return
	}
	writeJSON(w, okStatus, o.view)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	var v JobView
	if ok {
		v = s.viewLocked(j)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "job %d not found", id)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// finishLocked applies one completion report to a running job: it
// claims the job (so a concurrent duplicate report gets 409, not a
// double release), advances its lifecycle state, and returns the
// allocation to release and the feedback outcome to deliver — both of
// which the caller must do *after* unlocking, in that order, because
// Release takes the per-pool cluster locks and feedback takes rotMu,
// neither of which may be acquired under the exclusive s.mu. When
// requeue is true the job failed but has attempts left: the caller
// must, after feedback, push it through an admission requeue node so
// it re-enters the queue at the head (the paper's semantics) with its
// restored estimate. A report the job cannot take returns a nil job
// and the item's error outcome in fail.
func (s *Server) finishLocked(c CompletionItem) (j *job, o estimate.Outcome, requeue bool, fail batchOutcome) {
	j, ok := s.jobs[c.ID]
	if !ok {
		return nil, o, false, itemError(http.StatusNotFound, "job %d not found", c.ID)
	}
	if j.view.State != StateRunning {
		return nil, o, false, itemError(http.StatusConflict, "job %d is %s, not running", c.ID, j.view.State)
	}
	o = estimate.Outcome{
		Job:       specToTraceJob(j),
		Allocated: j.alloc.MinMem(),
		Success:   c.Success,
	}
	if s.cfg.ExplicitFeedback && c.UsedMemMB > 0 {
		o.Explicit = true
		o.Used = units.MemSize(c.UsedMemMB)
	}
	switch {
	case c.Success:
		j.view.State = StateDone
		s.counters.done++
	case j.view.Attempts >= s.maxAttempts:
		j.view.State = StateFailed
		s.counters.failed++
	default:
		// Queued again, but unreachable by dispatch until the caller's
		// requeue node lands — which is what guarantees the restored
		// estimate (written by feedback) is visible when it
		// re-dispatches.
		j.view.State = StateQueued
		requeue = true
	}
	return j, o, requeue, batchOutcome{}
}

// feedback journals then trains, for every outcome of one completion
// request: the outcomes are appended to the durable WAL (when
// configured) as one RecordOutcomes group — one commit ticket, one
// fsync — strictly before the estimator learns from any of them, so
// every trained-on event is recoverable after a crash. Both layers
// degrade instead of failing — a failed group append counts every
// record in wal_errors and training still runs, an estimator error
// costs one event's learning; neither fails the completions, which
// were already claimed. Must be called with s.mu NOT held.
//
// The append+train pair runs under rotMu's read side: a snapshot
// rotation (Quiesce) between the two would capture estimator state
// missing the just-journaled records and then delete the journal that
// holds them, so the pair must be atomic with respect to rotation.
func (s *Server) feedback(outcomes []estimate.Outcome) {
	if len(outcomes) == 0 {
		return
	}
	s.feedbacks.Add(uint64(len(outcomes)))
	s.rotMu.RLock()
	defer s.rotMu.RUnlock()
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.RecordOutcomes(outcomes); err != nil {
			s.walErrors.Add(uint64(len(outcomes)))
		} else {
			s.walRecords.Add(uint64(len(outcomes)))
		}
	}
	for i := range outcomes {
		if s.fallible != nil {
			if err := s.fallible.TryFeedback(outcomes[i]); err != nil {
				s.degradedFeedbacks.Add(1)
			}
			continue
		}
		s.est.Feedback(outcomes[i])
	}
}

// Quiesce runs fn while no feedback event is between its journal
// append and its estimator training: every outcome already journaled
// has also been trained on, and new feedback waits until fn returns.
// cmd/schedd routes WAL rotation through it so the rotated-out
// generation's records are all reflected in the snapshot that
// supersedes them — the invariant wal.Log.Rotate documents. fn should
// be brief (a snapshot is a few KB); completions block for the
// duration, everything else proceeds.
//
//overprov:callsunder rotMu
func (s *Server) Quiesce(fn func() error) error {
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	return fn()
}

// estimateFor asks the estimator for a job's matching capacity,
// degrading to the request itself — the paper's no-estimation
// baseline — when the estimator's error path fires. Must be called
// with s.mu NOT held.
func (s *Server) estimateFor(tj *trace.Job) units.MemSize {
	if s.fallible != nil {
		e, err := s.fallible.TryEstimate(tj)
		if err != nil {
			s.degradedEstimates.Add(1)
			return tj.ReqMem
		}
		return e
	}
	return s.est.Estimate(tj)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	// Job-table stats under s.mu; cluster occupancy afterwards, because
	// reading it takes the per-pool locks (rank 50), which must not be
	// acquired under the exclusive s.mu.
	s.mu.Lock()
	running := 0
	for _, j := range s.jobs {
		if j.view.State == StateRunning {
			running++
		}
	}
	st := StatusView{
		Cluster:           s.shared.String(),
		Total:             s.shared.TotalNodes(),
		Queued:            len(s.queue),
		Running:           running,
		Estimator:         s.estName,
		Done:              s.counters.done,
		Failed:            s.counters.failed,
		Rejected:          s.counters.rejected,
		Dispatches:        s.counters.dispatches,
		LoweredDispatches: s.counters.lowered,
		ReclaimedMBNodes:  s.counters.reclaimedMBNodes,
	}
	s.mu.Unlock()
	st.FreeNodes = s.shared.FreeNodes()
	for _, p := range s.shared.Pools() {
		st.Pools = append(st.Pools, PoolView{MemMB: p.Mem.MBf(), Total: p.Total, Free: p.Free()})
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEstimates(w http.ResponseWriter, r *http.Request) {
	// The estimator snapshots its own state consistently; holding s.mu
	// here would serialize estimate traffic behind JSON encoding.
	if !estimate.CanPersist(s.est) {
		httpError(w, http.StatusNotImplemented,
			"estimator %q does not expose persistent state", s.estName)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.est.(estimate.StatePersister).SaveState(w); err != nil {
		httpError(w, http.StatusInternalServerError, "save: %v", err)
	}
}

// viewLocked decorates a job view with its live queue position.
func (s *Server) viewLocked(j *job) JobView {
	v := j.view
	if v.State == StateQueued {
		for i, q := range s.queue {
			if q == j {
				v.QueuePos = i + 1
				break
			}
		}
	}
	return v
}

// specToTraceJob adapts a submission to the estimator's job model. The
// daemon never knows true usage; UsedMem stays zero.
func specToTraceJob(j *job) *trace.Job {
	return &trace.Job{
		ID:      int(j.view.ID),
		Nodes:   j.spec.Nodes,
		ReqMem:  units.MemSize(j.spec.ReqMemMB),
		ReqTime: units.Seconds(j.spec.ReqTimeS),
		User:    j.spec.User,
		App:     j.spec.App,
	}
}

// writeJSON encodes through a pooled buffer so the response path, like
// the batch decode path, is alloc-free at steady state.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyBufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	writeJSON(w, status, map[string]string{"error": strings.TrimSpace(msg)})
}
