package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
)

// testServer spins up the daemon on a 2×24MB + 2×32MB toy cluster with
// Algorithm 1 wired in.
func testServer(t *testing.T) (*httptest.Server, *estimate.SuccessiveApprox) {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{Nodes: 2, Mem: 24}, cluster.Spec{Nodes: 2, Mem: 32})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := estimate.NewSuccessiveApprox(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cluster: cl, Estimator: sa})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, sa
}

func doJSON(t *testing.T, method, url string, body interface{}, wantStatus int, out interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s = %d, want %d (%v)", method, url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func submit(t *testing.T, ts *httptest.Server, user, app, nodes int, mem float64) JobView {
	t.Helper()
	var v JobView
	doJSON(t, "POST", ts.URL+"/api/v1/jobs",
		SubmitRequest{User: user, App: app, Nodes: nodes, ReqMemMB: mem, ReqTimeS: 100},
		http.StatusCreated, &v)
	return v
}

func complete(t *testing.T, ts *httptest.Server, id int64, success bool) JobView {
	t.Helper()
	var v JobView
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/jobs/%d/complete", ts.URL, id),
		CompleteRequest{Success: success}, http.StatusOK, &v)
	return v
}

func TestSubmitRunsImmediately(t *testing.T) {
	ts, _ := testServer(t)
	v := submit(t, ts, 1, 1, 2, 16)
	if v.State != StateRunning {
		t.Fatalf("state = %s, want running", v.State)
	}
	if v.EstMemMB != 16 && v.EstMemMB != 24 {
		t.Errorf("estimate = %g, want the request (first submission)", v.EstMemMB)
	}
	// Best fit lands on the 24MB pool.
	if v.AllocMB != 24 {
		t.Errorf("allocated min mem = %g, want 24", v.AllocMB)
	}
}

func TestFCFSQueueing(t *testing.T) {
	ts, _ := testServer(t)
	a := submit(t, ts, 1, 1, 4, 16) // takes the whole machine
	b := submit(t, ts, 2, 2, 1, 16)
	if b.State != StateQueued || b.QueuePos != 1 {
		t.Fatalf("second job = %+v, want queued at position 1", b)
	}
	// Completing A starts B.
	complete(t, ts, a.ID, true)
	var bb JobView
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, b.ID), nil, http.StatusOK, &bb)
	if bb.State != StateRunning {
		t.Fatalf("after release, job B = %s, want running", bb.State)
	}
}

func TestEstimatorLearnsAcrossJobs(t *testing.T) {
	ts, _ := testServer(t)
	// Same similarity group (user 1, app 1, 32MB): first runs at 32,
	// second at the halved estimate (24MB pool after rounding).
	a := submit(t, ts, 1, 1, 1, 32)
	if a.EstMemMB != 32 {
		t.Fatalf("first estimate = %g, want 32", a.EstMemMB)
	}
	complete(t, ts, a.ID, true)
	b := submit(t, ts, 1, 1, 1, 32)
	if b.EstMemMB != 24 { // 32/2 = 16 → rounds up to the 24MB pool
		t.Errorf("second estimate = %g, want 24 (16 rounded to the ladder)", b.EstMemMB)
	}
}

func TestFailureRequeuesAtHead(t *testing.T) {
	ts, _ := testServer(t)
	a := submit(t, ts, 1, 1, 4, 16) // occupies everything
	b := submit(t, ts, 2, 2, 1, 16)
	c := submit(t, ts, 3, 3, 1, 16)
	if b.QueuePos != 1 || c.QueuePos != 2 {
		t.Fatalf("queue positions = %d,%d", b.QueuePos, c.QueuePos)
	}
	// A fails: it must re-enter at the head, ahead of B and C, and
	// (nodes now being free) dispatch immediately.
	av := complete(t, ts, a.ID, false)
	if av.State != StateRunning {
		t.Fatalf("failed job = %s, want re-dispatched (running)", av.State)
	}
	if av.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", av.Attempts)
	}
}

func TestTerminalFailureAfterMaxAttempts(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{Nodes: 2, Mem: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cluster: cl, Estimator: estimate.Identity{}, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v := submit(t, ts, 1, 1, 1, 16)
	v = complete(t, ts, v.ID, false) // attempt 2 starts
	if v.State != StateRunning || v.Attempts != 2 {
		t.Fatalf("after first failure: %+v", v)
	}
	v = complete(t, ts, v.ID, false)
	if v.State != StateFailed {
		t.Fatalf("after exhausting attempts: %s, want failed", v.State)
	}
	// Nodes must be free again.
	var st StatusView
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, http.StatusOK, &st)
	if st.FreeNodes != st.Total {
		t.Errorf("free = %d of %d after terminal failure", st.FreeNodes, st.Total)
	}
}

func TestUnrunnableJobRejected(t *testing.T) {
	ts, _ := testServer(t)
	v := submit(t, ts, 1, 1, 99, 16)
	if v.State != StateRejected || v.Rejection == "" {
		t.Fatalf("oversized job = %+v, want rejected with a reason", v)
	}
	// The rejection must not block later submissions.
	w := submit(t, ts, 2, 2, 1, 16)
	if w.State != StateRunning {
		t.Errorf("job after rejection = %s, want running", w.State)
	}
}

func TestStatusEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	submit(t, ts, 1, 1, 2, 30) // occupies the two 32MB nodes
	var st StatusView
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, http.StatusOK, &st)
	if st.Total != 4 || st.FreeNodes != 2 || st.Running != 1 {
		t.Errorf("status = %+v", st)
	}
	if len(st.Pools) != 2 {
		t.Errorf("pools = %d, want 2", len(st.Pools))
	}
}

func TestEstimatesEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	a := submit(t, ts, 1, 1, 1, 32)
	complete(t, ts, a.ID, true)
	resp, err := http.Get(ts.URL + "/api/v1/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state struct {
		Kind   string `json:"kind"`
		Groups []struct {
			User       int     `json:"user"`
			EstimateMB float64 `json:"estimate_mb"`
		} `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if state.Kind != "successive-approx" || len(state.Groups) != 1 {
		t.Fatalf("estimates dump = %+v", state)
	}
	if state.Groups[0].EstimateMB >= 32 {
		t.Errorf("group estimate = %g, want lowered after success", state.Groups[0].EstimateMB)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", SubmitRequest{Nodes: 0, ReqMemMB: 16},
		http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs", SubmitRequest{Nodes: 1, ReqMemMB: -1},
		http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/999", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/jobs/999/complete", CompleteRequest{},
		http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/abc", nil, http.StatusBadRequest, nil)
	// Completing a queued job is a conflict.
	submit(t, ts, 1, 1, 4, 16)
	q := submit(t, ts, 2, 2, 1, 16)
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/jobs/%d/complete", ts.URL, q.ID),
		CompleteRequest{Success: true}, http.StatusConflict, nil)
}

func TestServerConfigValidation(t *testing.T) {
	cl, _ := cluster.New(cluster.Spec{Nodes: 1, Mem: 32})
	if _, err := New(Config{Estimator: estimate.Identity{}}); err == nil {
		t.Error("nil cluster must be rejected")
	}
	if _, err := New(Config{Cluster: cl}); err == nil {
		t.Error("nil estimator must be rejected")
	}
	if _, err := New(Config{Cluster: cl, Estimator: estimate.Identity{}, MaxAttempts: -1}); err == nil {
		t.Error("negative MaxAttempts must be rejected")
	}
}

func TestExplicitFeedbackPath(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{Nodes: 2, Mem: 32})
	if err != nil {
		t.Fatal(err)
	}
	li, err := estimate.NewLastInstance(estimate.LastInstanceConfig{Round: cl})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cluster: cl, Estimator: li, ExplicitFeedback: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := submit(t, ts, 1, 1, 1, 32)
	var v JobView
	doJSON(t, "POST", fmt.Sprintf("%s/api/v1/jobs/%d/complete", ts.URL, a.ID),
		CompleteRequest{Success: true, UsedMemMB: 7}, http.StatusOK, &v)
	// The next submission of the group must use the reported usage.
	b := submit(t, ts, 1, 1, 1, 32)
	if b.EstMemMB != 32 { // 7MB rounds up to the only pool, 32MB
		t.Errorf("estimate = %g, want 32 (7MB rounded to the single pool)", b.EstMemMB)
	}
}

func TestStatusCounters(t *testing.T) {
	ts, _ := testServer(t)
	a := submit(t, ts, 1, 1, 1, 32)
	complete(t, ts, a.ID, true)
	b := submit(t, ts, 1, 1, 1, 32) // dispatched at the learned 24MB
	complete(t, ts, b.ID, true)
	submit(t, ts, 9, 9, 99, 16) // rejected

	var st StatusView
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, http.StatusOK, &st)
	if st.Done != 2 || st.Rejected != 1 || st.Dispatches != 2 {
		t.Errorf("counters = %+v", st)
	}
	if st.LoweredDispatches != 1 {
		t.Errorf("lowered = %d, want 1 (the second dispatch)", st.LoweredDispatches)
	}
	if st.ReclaimedMBNodes != 8 { // (32-24) × 1 node
		t.Errorf("reclaimed = %g MB·nodes, want 8", st.ReclaimedMBNodes)
	}
}

func TestConcurrentClients(t *testing.T) {
	ts, _ := testServer(t)
	// Hammer the API from many goroutines; correctness is checked by
	// the race detector plus final conservation.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := submit(t, ts, w+1, i%3+1, 1, 16)
				if v.State == StateRunning {
					complete(t, ts, v.ID, true)
				}
			}
		}()
	}
	wg.Wait()
	var st StatusView
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, http.StatusOK, &st)
	// Every running job was completed by its submitter; whatever queued
	// behind a concurrent holder may remain, but the books must balance.
	if st.Running+st.Queued+st.Done+st.Failed+st.Rejected != 160 {
		t.Errorf("job conservation broken: %+v", st)
	}
	if st.FreeNodes+st.Running > st.Total && st.Running == 0 {
		t.Errorf("node books broken: %+v", st)
	}
}

// TestConcurrentStateSaverDoesNotRace: HTTP handlers train the
// estimator while an exporter (SaveState, as GET /api/v1/estimates and
// a WAL snapshot use it) serialises it out-of-band. Before the
// estimate.Synchronized wrapper, such a saver read the group map
// without the server's lock — a data race the race detector flags here
// the moment the wrapper is bypassed.
func TestConcurrentStateSaverDoesNotRace(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{Nodes: 2, Mem: 24}, cluster.Spec{Nodes: 2, Mem: 32})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := estimate.NewSuccessiveApprox(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl})
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.NewSynchronized(sa)
	srv, err := New(Config{Cluster: cl, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	stop := make(chan struct{})
	var saver sync.WaitGroup
	saver.Add(1)
	go func() {
		defer saver.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := est.SaveState(io.Discard); err != nil {
					t.Errorf("out-of-band SaveState: %v", err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := submit(t, ts, w+1, i%3+1, 1, 16)
				if v.State == StateRunning {
					complete(t, ts, v.ID, true)
				}
				// The estimates endpoint snapshots state through the
				// same persister interface the saver uses.
				resp, err := http.Get(ts.URL + "/api/v1/estimates")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	saver.Wait()

	if sa.NumGroups() == 0 {
		t.Error("no similarity groups learned under concurrent traffic")
	}
}
