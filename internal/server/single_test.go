package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestSingleEndpointsMatchBatchOfOne pins the single-job endpoints
// against the batch endpoints: each case's request gets its own status
// and job view from POST /api/v1/jobs or /jobs/{id}/complete, and the
// same request sent as a one-item jobs:batch or complete:batch to a
// twin server with the same history yields the same view or error and
// leaves the same counters and byte-identical estimator state behind.
func TestSingleEndpointsMatchBatchOfOne(t *testing.T) {
	const job = `{"user":1,"app":1,"nodes":1,"req_mem_mb":32,"req_time_s":600}`
	type req struct{ path, body string }
	submit := req{"/api/v1/jobs", job}
	done1 := req{"/api/v1/jobs/1/complete", `{"success":true}`}
	view := func(id int64, st JobState, est float64, attempts int) *JobView {
		return &JobView{ID: id, State: st, User: 1, App: 1, Nodes: 1, ReqMemMB: 32,
			EstMemMB: est, AllocMB: est, Attempts: attempts}
	}
	cases := []struct {
		name      string
		setup     []req // sent to both twins through the single endpoints
		req       req
		status    int
		want      *JobView // nil for an error
		malformed bool     // the batch form is refused whole, with 400
	}{
		{"submit valid", nil, submit, http.StatusCreated, view(1, StateRunning, 32, 1), false},
		{"submit zero nodes", nil, req{"/api/v1/jobs", `{"user":1,"app":1,"nodes":0,"req_mem_mb":32}`},
			http.StatusBadRequest, nil, false},
		{"submit bad JSON", nil, req{"/api/v1/jobs", `{"user":`}, http.StatusBadRequest, nil, true},
		{"complete success", []req{submit}, done1, http.StatusOK, view(1, StateDone, 32, 1), false},
		// Job 2 runs at the lowered 24 MB; its failure restores the
		// group's estimate to the last safe 32 MB, at which the requeued
		// job is re-dispatched.
		{"complete failure requeues at the restored estimate", []req{submit, done1, submit},
			req{"/api/v1/jobs/2/complete", `{"success":false}`}, http.StatusOK, view(2, StateRunning, 32, 2), false},
		{"complete unknown id", nil, req{"/api/v1/jobs/99/complete", `{"success":true}`}, http.StatusNotFound, nil, false},
		{"complete twice", []req{submit, done1}, done1, http.StatusConflict, nil, false},
		{"complete non-numeric id", []req{submit}, req{"/api/v1/jobs/abc/complete", `{"success":true}`},
			http.StatusBadRequest, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Twins on a 2×24 MB + 2×32 MB cluster.
			single, _, singleEst := shardedServer(t, 2)
			batch, _, batchEst := shardedServer(t, 2)
			for _, r := range tc.setup {
				for _, s := range []*Server{single, batch} {
					if w := do(t, s.Handler(), "POST", r.path, r.body); w.Code >= 300 {
						t.Fatalf("setup %s: %d %s", r.path, w.Code, w.Body)
					}
				}
			}
			ws := do(t, single.Handler(), "POST", tc.req.path, tc.req.body)
			if ws.Code != tc.status {
				t.Fatalf("single %s: status %d, want %d (%s)", tc.req.path, ws.Code, tc.status, ws.Body)
			}
			var got JobView
			var e map[string]string
			if tc.want != nil {
				if err := json.Unmarshal(ws.Body.Bytes(), &got); err != nil || got != *tc.want {
					t.Fatalf("single view %+v (%v), want %+v", got, err, *tc.want)
				}
			} else if err := json.Unmarshal(ws.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("single error body %s (%v)", ws.Body, err)
			}

			path, body := asBatchOfOne(tc.req)
			wb := do(t, batch.Handler(), "POST", path, body)
			var resp BatchResponse
			switch {
			case tc.malformed:
				if wb.Code != http.StatusBadRequest {
					t.Fatalf("batch %s: status %d, want 400 (%s)", body, wb.Code, wb.Body)
				}
			case wb.Code != http.StatusOK:
				t.Fatalf("batch %s: status %d (%s)", body, wb.Code, wb.Body)
			case json.Unmarshal(wb.Body.Bytes(), &resp) != nil || len(resp.Results) != 1:
				t.Fatalf("batch response %s, want one item", wb.Body)
			case tc.want != nil && (resp.Results[0].Job == nil || *resp.Results[0].Job != got):
				t.Fatalf("batch item %+v, want the single view %+v", resp.Results[0], got)
			case tc.want == nil && (resp.Results[0].Job != nil || resp.Results[0].Error != e["error"]):
				t.Fatalf("batch item %+v, want the single error %q", resp.Results[0], e["error"])
			}

			if ms, mb := single.Metrics(), batch.Metrics(); !reflect.DeepEqual(ms, mb) {
				t.Errorf("metrics diverged:\nsingle %+v\nbatch  %+v", ms, mb)
			}
			var ss, sb bytes.Buffer
			if err := singleEst.SaveState(&ss); err != nil {
				t.Fatal(err)
			}
			if err := batchEst.SaveState(&sb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ss.Bytes(), sb.Bytes()) {
				t.Errorf("estimator state diverged:\nsingle %s\nbatch  %s", ss.String(), sb.String())
			}
		})
	}
}

// asBatchOfOne rewrites a single-endpoint request as the one-item batch
// request that carries the same payload (and the same id, numeric or
// not).
func asBatchOfOne(r struct{ path, body string }) (path, body string) {
	if r.path == "/api/v1/jobs" {
		return "/api/v1/jobs:batch", `{"jobs":[` + r.body + `]}`
	}
	id := strings.TrimSuffix(strings.TrimPrefix(r.path, "/api/v1/jobs/"), "/complete")
	return "/api/v1/complete:batch", `{"completions":[{"id":` + id + `,` + r.body[1:] + `]}`
}
