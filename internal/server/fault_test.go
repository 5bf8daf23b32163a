package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/faultinject"
	"overprov/internal/units"
)

// faultServer builds a daemon whose estimator and journal are behind
// the fault-injection harness.
func faultServer(t *testing.T, estSched, walSched *faultinject.Schedule, journal FeedbackLog) *Server {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{Nodes: 64, Mem: units.MemSize(64)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{
		Alpha: 2, Round: cl,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: cl, Estimator: faultinject.NewEstimator(inner, estSched)}
	if journal != nil {
		cfg.Journal = faultinject.NewJournal(journal, walSched)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// do runs one JSON request through the full handler chain.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func submitBody(user int) string {
	return fmt.Sprintf(`{"user":%d,"app":1,"nodes":1,"req_mem_mb":32,"req_time_s":600}`, user)
}

// TestEstimatorFaultDegradesToRequested: with the estimator failing
// hard, submissions must still succeed — dispatched at the *requested*
// memory, the paper's no-estimation baseline — and be counted.
func TestEstimatorFaultDegradesToRequested(t *testing.T) {
	sched := faultinject.NewSchedule(faultinject.FailAll(faultinject.OpEstimate, nil))
	srv := faultServer(t, sched, nil, nil)
	h := srv.Handler()

	w := do(t, h, "POST", "/api/v1/jobs", submitBody(1))
	if w.Code != http.StatusCreated {
		t.Fatalf("submit with failed estimator: status %d, body %s", w.Code, w.Body)
	}
	var v JobView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateRunning {
		t.Fatalf("job state %q, want running", v.State)
	}
	if v.EstMemMB != v.ReqMemMB {
		t.Errorf("degraded estimate %g MB, want the requested %g MB", v.EstMemMB, v.ReqMemMB)
	}
	m := srv.Metrics()
	if m.DegradedEstimates == 0 {
		t.Error("degraded estimate not counted in metrics")
	}
}

// TestFeedbackFaultStillAcks: completion reports succeed even when the
// estimator refuses to learn; the lost training is counted.
func TestFeedbackFaultStillAcks(t *testing.T) {
	sched := faultinject.NewSchedule(faultinject.FailAll(faultinject.OpFeedback, nil))
	srv := faultServer(t, sched, nil, nil)
	h := srv.Handler()

	do(t, h, "POST", "/api/v1/jobs", submitBody(1))
	w := do(t, h, "POST", "/api/v1/jobs/1/complete", `{"success":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("complete with failing estimator: status %d, body %s", w.Code, w.Body)
	}
	m := srv.Metrics()
	if m.DegradedFeedbacks != 1 {
		t.Errorf("degraded feedbacks = %d, want 1", m.DegradedFeedbacks)
	}
	if m.FeedbackEvents != 1 {
		t.Errorf("feedback events = %d, want 1 (the ack happened)", m.FeedbackEvents)
	}
}

// countingJournal is an always-succeeding in-memory FeedbackLog that
// records the size of every append group it is handed.
type countingJournal struct{ groups []int }

func (c *countingJournal) RecordOutcomes(outcomes []estimate.Outcome) error {
	c.groups = append(c.groups, len(outcomes))
	return nil
}

// TestWALFaultDegradesDurability: a failing journal append must not
// fail the completion — it costs durability, counted in wal_errors.
func TestWALFaultDegradesDurability(t *testing.T) {
	estSched := faultinject.NewSchedule() // healthy estimator
	walSched := faultinject.NewSchedule(faultinject.FailNth(faultinject.OpWALAppend, 1, nil))
	journal := &countingJournal{}
	srv := faultServer(t, estSched, walSched, journal)
	h := srv.Handler()

	for i := 1; i <= 2; i++ {
		do(t, h, "POST", "/api/v1/jobs", submitBody(i))
	}
	for i := 1; i <= 2; i++ {
		w := do(t, h, "POST", fmt.Sprintf("/api/v1/jobs/%d/complete", i), `{"success":true}`)
		if w.Code != http.StatusOK {
			t.Fatalf("complete %d: status %d, body %s", i, w.Code, w.Body)
		}
	}
	m := srv.Metrics()
	if m.WALErrors != 1 || m.WALRecords != 1 {
		t.Errorf("wal_errors=%d wal_records=%d, want 1 and 1", m.WALErrors, m.WALRecords)
	}
	if len(journal.groups) != 1 || journal.groups[0] != 1 {
		t.Errorf("inner journal saw groups %v, want one group of 1", journal.groups)
	}
	// The estimator still learned from both completions.
	if m.FeedbackEvents != 2 || m.DegradedFeedbacks != 0 {
		t.Errorf("feedback_events=%d degraded=%d, want 2 and 0", m.FeedbackEvents, m.DegradedFeedbacks)
	}
}

// TestJournalWriteAheadOrder: the journal append happens strictly
// before estimator training for every completion.
func TestJournalWriteAheadOrder(t *testing.T) {
	var order []string
	estSched := faultinject.NewSchedule()
	cl, err := cluster.New(cluster.Spec{Nodes: 4, Mem: units.MemSize(64)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl}, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Cluster:   cl,
		Estimator: orderSpy{Estimator: faultinject.NewEstimator(inner, estSched), order: &order},
		Journal: journalFunc(func([]estimate.Outcome) error {
			order = append(order, "journal")
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	do(t, h, "POST", "/api/v1/jobs", submitBody(1))
	order = order[:0] // ignore the submit's estimate calls
	if w := do(t, h, "POST", "/api/v1/jobs/1/complete", `{"success":true}`); w.Code != http.StatusOK {
		t.Fatalf("complete: %d %s", w.Code, w.Body)
	}
	if len(order) < 2 || order[0] != "journal" || order[1] != "feedback" {
		t.Fatalf("write-ahead order violated: %v (journal must precede feedback)", order)
	}
}

// orderSpy records when training happens, delegating everything else.
type orderSpy struct {
	*faultinject.Estimator
	order *[]string
}

func (s orderSpy) TryFeedback(o estimate.Outcome) error {
	*s.order = append(*s.order, "feedback")
	return s.Estimator.TryFeedback(o)
}

// journalFunc adapts a function to the FeedbackLog interface.
type journalFunc func([]estimate.Outcome) error

func (f journalFunc) RecordOutcomes(outcomes []estimate.Outcome) error { return f(outcomes) }

// TestHealthzDrainFlip: the readiness endpoint serves 200 until drain
// begins, then 503 — while the API keeps serving.
func TestHealthzDrainFlip(t *testing.T) {
	srv := faultServer(t, faultinject.NewSchedule(), nil, nil)
	h := srv.Handler()

	w := do(t, h, "GET", "/api/v1/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", w.Code)
	}
	var hv HealthView
	if err := json.Unmarshal(w.Body.Bytes(), &hv); err != nil || hv.Status != "ok" {
		t.Fatalf("healthz payload %s (%v)", w.Body, err)
	}

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	w = do(t, h, "GET", "/api/v1/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hv); err != nil || hv.Status != "draining" {
		t.Fatalf("healthz payload %s (%v)", w.Body, err)
	}
	// Drain is advisory: in-flight and follow-up API requests still work.
	if w := do(t, h, "POST", "/api/v1/jobs", submitBody(1)); w.Code != http.StatusCreated {
		t.Fatalf("submit while draining: %d (drain must not reject requests)", w.Code)
	}
	if m := srv.Metrics(); !m.Draining {
		t.Error("metrics do not report draining")
	}
}

// TestSeededChaosServing drives the full API under a random fault
// process on every estimator operation: whatever the schedule injects,
// requests must never fail — only degrade.
func TestSeededChaosServing(t *testing.T) {
	sched := faultinject.NewSeeded(7, 0.4, faultinject.Fault{Err: errors.New("chaos")})
	srv := faultServer(t, sched, nil, nil)
	h := srv.Handler()
	const n = 50
	for i := 1; i <= n; i++ {
		if w := do(t, h, "POST", "/api/v1/jobs", submitBody(i%5)); w.Code != http.StatusCreated {
			t.Fatalf("submit %d under chaos: %d %s", i, w.Code, w.Body)
		}
		if w := do(t, h, "POST", fmt.Sprintf("/api/v1/jobs/%d/complete", i), `{"success":true}`); w.Code != http.StatusOK {
			t.Fatalf("complete %d under chaos: %d %s", i, w.Code, w.Body)
		}
	}
	m := srv.Metrics()
	if m.DegradedEstimates+m.DegradedFeedbacks == 0 {
		t.Fatal("chaos schedule injected nothing — probability 0.4 over 100+ ops")
	}
	if m.FeedbackEvents != n {
		t.Errorf("feedback events %d, want %d (every completion acked)", m.FeedbackEvents, n)
	}
	t.Logf("chaos run: %d degraded estimates, %d degraded feedbacks, %s",
		m.DegradedEstimates, m.DegradedFeedbacks, sched)
}
