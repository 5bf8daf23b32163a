package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"overprov/internal/estimate"
)

// maxBatchItems bounds one batch request, keeping a single client from
// parking the job-table lock (and the decoder) on an arbitrarily large
// payload. The wire protocol enforces the same bound per frame.
const maxBatchItems = 4096

// SubmitBatchRequest is the POST /api/v1/jobs:batch payload.
type SubmitBatchRequest struct {
	Jobs []SubmitRequest `json:"jobs"`
}

// CompleteBatchRequest is the POST /api/v1/complete:batch payload.
type CompleteBatchRequest struct {
	Completions []CompletionItem `json:"completions"`
}

// CompletionItem is one completion report within a batch.
type CompletionItem struct {
	ID        int64   `json:"id"`
	Success   bool    `json:"success"`
	UsedMemMB float64 `json:"used_mem_mb,omitempty"`
}

// BatchItemResult is one item's outcome within a batch response: either
// the job's resulting view or a per-item error. The batch as a whole
// answers 200 as long as the request itself was well-formed — per-item
// failures must not make the other items' outcomes unreachable.
type BatchItemResult struct {
	Job   *JobView `json:"job,omitempty"`
	Error string   `json:"error,omitempty"`
}

// BatchResponse is the jobs:batch and complete:batch response body.
type BatchResponse struct {
	Results []BatchItemResult `json:"results"`
}

// batchOutcome is one item's result from the protocol-independent batch
// core. Exactly one of view (ok == true) or errMsg is meaningful. The
// single-job and batch HTTP handlers and the wire server all render
// their responses from these, which is what makes every endpoint's
// estimator effects identical by construction: they run the same
// submitJobs/completeJobs code on the same decoded items. status is an
// error item's HTTP status (400, 404, 409 or 500), which the single-job
// endpoints answer with; the batch endpoints and the wire server carry
// only the message.
type batchOutcome struct {
	view   JobView
	errMsg string
	status int
	ok     bool
}

// itemError is a per-item error outcome.
func itemError(status int, format string, args ...interface{}) batchOutcome {
	return batchOutcome{errMsg: fmt.Sprintf(format, args...), status: status}
}

// submitJobs is the protocol-independent submit core: validate every
// item, create the valid ones in the job table under one lock
// acquisition, run them through one admission node (so a single
// dispatch pass covers the whole batch), and fill out with the
// resulting views. len(out) must equal len(reqs).
func (s *Server) submitJobs(reqs []SubmitRequest, out []batchOutcome) {
	jobs := make([]*job, len(reqs))
	n := &admission{}
	s.mu.Lock()
	for i := range reqs {
		if err := reqs[i].validate(); err != nil {
			out[i] = itemError(http.StatusBadRequest, "%v", err)
			continue
		}
		// The job reaches the FCFS queue only when the dispatch pass
		// drains n; until then it is invisible to dispatch.
		s.nextID++
		r := &reqs[i]
		jobs[i] = &job{spec: *r, view: JobView{ID: s.nextID, State: StateQueued,
			User: r.User, App: r.App, Nodes: r.Nodes, ReqMemMB: r.ReqMemMB}}
		s.jobs[s.nextID] = jobs[i]
		n.jobs = append(n.jobs, jobs[i])
	}
	s.mu.Unlock()
	if len(n.jobs) > 0 {
		n.done = make(chan struct{})
		s.admit.push(n)
		s.runDispatch(n)
	}
	s.mu.Lock()
	for i, j := range jobs {
		if j != nil {
			out[i] = batchOutcome{view: s.viewLocked(j), ok: true}
		}
	}
	s.mu.Unlock()
}

// completeJobs is the protocol-independent completion core: claim every
// reported job under one lock acquisition, release their allocations
// (per-pool locks, outside s.mu), feed the estimator every outcome in
// item order, then push failed-but-retryable jobs through one
// admission requeue node and run the dispatch pass. The
// feedback-before-requeue order guarantees a re-dispatched job sees
// its restored estimate. len(out) must equal len(items).
func (s *Server) completeJobs(items []CompletionItem, out []batchOutcome) {
	jobs := make([]*job, len(items))
	outcomes := make([]estimate.Outcome, 0, len(items))
	n := &admission{}
	s.mu.Lock()
	for i, c := range items {
		j, o, rq, fail := s.finishLocked(c)
		if j == nil {
			out[i] = fail
			continue
		}
		jobs[i] = j
		outcomes = append(outcomes, o)
		if rq {
			n.requeues = append(n.requeues, j)
		}
	}
	s.mu.Unlock()
	for i, j := range jobs {
		if j == nil {
			continue
		}
		// A release error means the allocation books are corrupt: the
		// item answers 500 and is counted, but the job was claimed, so
		// it still trains and, if it failed, still requeues.
		if err := s.shared.Release(j.alloc); err != nil {
			s.releaseErrors.Add(1)
			out[i] = itemError(http.StatusInternalServerError, "release: %v", err)
			jobs[i] = nil
		}
	}
	// One rotation hold and one journal append group for the whole
	// request: every endpoint funnels through here, so all of them share
	// the amortized fsync.
	s.feedback(outcomes)
	if len(n.requeues) > 0 {
		n.done = make(chan struct{})
	}
	// Even with no requeues the node is pushed as a kick: the released
	// capacity may unblock the queue head.
	s.admit.push(n)
	s.runDispatch(n)
	s.mu.Lock()
	for i, j := range jobs {
		if j != nil {
			out[i] = batchOutcome{view: s.viewLocked(j), ok: true}
		}
	}
	s.mu.Unlock()
}

// Steady-state batch serving allocates nothing per request for decode
// scratch: request bodies are read into pooled buffers and unmarshaled
// into pooled request structs whose item slices json.Unmarshal reuses
// (it resets length to zero and appends, keeping the backing array).
var (
	bodyBufPool     = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}
	submitReqPool   = sync.Pool{New: func() interface{} { return new(SubmitBatchRequest) }}
	completeReqPool = sync.Pool{New: func() interface{} { return new(CompleteBatchRequest) }}
)

// decodeBatchBody reads and unmarshals a batch payload into v (a
// pooled request struct), rejecting malformed, empty or oversized
// batches. n reports the decoded item count.
func decodeBatchBody(w http.ResponseWriter, r *http.Request, v interface{}, n func() int) bool {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyBufPool.Put(buf)
	if _, err := io.Copy(buf, r.Body); err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	if n() == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return false
	}
	if n() > maxBatchItems {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds the %d-item limit", n(), maxBatchItems)
		return false
	}
	return true
}

// handleSubmitBatch runs a whole batch through submitJobs: one decode,
// one lock acquisition and one admission node cover every item.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	req := submitReqPool.Get().(*SubmitBatchRequest)
	defer submitReqPool.Put(req)
	if !decodeBatchBody(w, r, req, func() int { return len(req.Jobs) }) {
		return
	}
	out := make([]batchOutcome, len(req.Jobs))
	s.submitJobs(req.Jobs, out)
	writeJSON(w, http.StatusOK, toBatchResponse(out))
}

// handleCompleteBatch applies a batch of completion reports through
// the shared completion core.
func (s *Server) handleCompleteBatch(w http.ResponseWriter, r *http.Request) {
	req := completeReqPool.Get().(*CompleteBatchRequest)
	defer completeReqPool.Put(req)
	if !decodeBatchBody(w, r, req, func() int { return len(req.Completions) }) {
		return
	}
	out := make([]batchOutcome, len(req.Completions))
	s.completeJobs(req.Completions, out)
	writeJSON(w, http.StatusOK, toBatchResponse(out))
}

// toBatchResponse renders protocol-independent outcomes as the HTTP
// batch response body.
func toBatchResponse(out []batchOutcome) BatchResponse {
	results := make([]BatchItemResult, len(out))
	for i := range out {
		if out[i].ok {
			v := out[i].view
			results[i].Job = &v
		} else {
			results[i].Error = out[i].errMsg
		}
	}
	return BatchResponse{Results: results}
}
