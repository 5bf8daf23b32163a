package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/server"
	"overprov/internal/units"
	"overprov/internal/wire"
)

// maxAttempts is the daemon's default re-dispatch bound (server.Config).
const maxAttempts = 10

// oracle is what one in-process play of the script says the real run must
// produce: each job's outcome sequence, the counters, and the estimator's
// final state.
type oracle struct {
	// Fails[c][i] is how many executions of connection c's i-th job end
	// in an under-estimate failure before one succeeds; maxAttempts means
	// the job is lost (terminally failed).
	Fails [][]uint8
	// Requests is the number of requests the script makes, follow-up
	// completions of re-dispatched jobs included.
	Requests                int
	Executions, FailedExecs int
	Lost                    int
	Status                  server.StatusView
	FeedbackEvents          uint64
	// Snapshot is the estimator's SaveState after the last round.
	Snapshot []byte
}

// newBackendParts builds the cluster and estimator exactly as cmd/schedd
// does for `-cluster clusterSpec` with default α, β and shards.
func newBackendParts() (*cluster.Cluster, *estimate.ShardedSynchronized, error) {
	cl, err := cluster.New(cluster.Spec{Nodes: 1 << 20, Mem: 32 * units.MB}, cluster.Spec{Nodes: 1 << 20, Mem: 24 * units.MB})
	if err != nil {
		return nil, nil, err
	}
	est, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2, Beta: 0, Round: cl}, estimate.DefaultShards)
	if err != nil {
		return nil, nil, err
	}
	return cl, est, nil
}

// memResponse is the minimal http.ResponseWriter the in-process plays need.
type memResponse struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.hdr }
func (m *memResponse) WriteHeader(code int)        { m.code = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// call runs one request through an in-process handler and decodes the reply.
func call(h http.Handler, method, path string, in, out interface{}) error {
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, path, &body)
	if err != nil {
		return err
	}
	resp := &memResponse{hdr: http.Header{}, code: http.StatusOK}
	h.ServeHTTP(resp, req)
	if resp.code/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.code, bytes.TrimSpace(resp.body.Bytes()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp.body.Bytes(), out)
}

// succeeds is the paper's rule: an execution succeeds iff its actual usage
// fits the capacity it was allocated (sim.go applies the same test).
func succeeds(usedMB, allocMB float64) bool {
	return units.MemSize(usedMB).Fits(units.MemSize(allocMB))
}

// batchHandlerTransport drives the JSON batch endpoints of an in-process
// handler. Their JobView carries the allocated capacity that swp results do
// not, which is what lets the oracle decide each execution's outcome.
type batchHandlerTransport struct {
	h    http.Handler
	sub  server.SubmitBatchRequest
	comp server.CompleteBatchRequest
}

func (bt *batchHandlerTransport) reply(path string, in interface{}, dst []result) ([]result, error) {
	// A fresh response per call: json.Unmarshal into reused elements would
	// keep stale omitempty fields.
	var resp server.BatchResponse
	if err := call(bt.h, "POST", path, in, &resp); err != nil {
		return dst, err
	}
	for _, r := range resp.Results {
		if r.Job == nil {
			dst = append(dst, result{Err: r.Error})
			continue
		}
		dst = append(dst, result{ID: r.Job.ID, State: wire.StateByte(string(r.Job.State)), AllocMB: r.Job.AllocMB})
	}
	return dst, nil
}

func (bt *batchHandlerTransport) submit(jobs []scriptJob, dst []result) ([]result, error) {
	bt.sub.Jobs = bt.sub.Jobs[:0]
	for _, j := range jobs {
		bt.sub.Jobs = append(bt.sub.Jobs, server.SubmitRequest{
			User: int(j.User), App: int(j.App), Nodes: int(j.Nodes), ReqMemMB: j.ReqMemMB, ReqTimeS: j.ReqTimeS,
		})
	}
	return bt.reply("/api/v1/jobs:batch", &bt.sub, dst)
}

func (bt *batchHandlerTransport) complete(ids []int64, success []bool, dst []result) ([]result, error) {
	bt.comp.Completions = bt.comp.Completions[:0]
	for i, id := range ids {
		bt.comp.Completions = append(bt.comp.Completions, server.CompletionItem{ID: id, Success: success[i]})
	}
	return bt.reply("/api/v1/complete:batch", &bt.comp, dst)
}

func (bt *batchHandlerTransport) close() {}

// runOracle plays the script once, connection by connection in turn,
// through an in-process server, deciding every execution's outcome by the
// paper's rule, and records what happened.
func runOracle(s *script) (*oracle, error) {
	cl, est, err := newBackendParts()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Cluster: cl, Estimator: est})
	if err != nil {
		return nil, err
	}
	t := &batchHandlerTransport{h: srv.Handler()}
	o := &oracle{Fails: make([][]uint8, len(s.Conn))}
	gens := make([]*connGen, len(s.Conn))
	maxRounds := 0
	for c := range s.Conn {
		o.Fails[c] = make([]uint8, len(s.Conn[c]))
		gens[c] = newConnGen(t, realClock{}, s, c, o.Fails[c])
		gens[c].record = true
		if r := s.rounds(c); r > maxRounds {
			maxRounds = r
		}
	}
	for r := 0; r < maxRounds; r++ {
		for c, g := range gens {
			if r < s.rounds(c) {
				if err := g.playRound(r, time.Time{}); err != nil {
					return nil, fmt.Errorf("oracle: connection %d: %w", c, err)
				}
			}
		}
	}
	for c, g := range gens {
		if err := g.flush(); err != nil {
			return nil, fmt.Errorf("oracle: connection %d: %w", c, err)
		}
		if g.st.Mismatches > 0 || g.st.FailedRequests > 0 {
			return nil, fmt.Errorf("oracle: connection %d: %d inconsistent replies, %d failed requests", c, g.st.Mismatches, g.st.FailedRequests)
		}
		o.Requests += g.st.Requests
		o.Executions += g.st.Executions
		o.FailedExecs += g.st.FailedExecs
		o.Lost += g.st.Lost
	}
	if err := call(t.h, "GET", "/api/v1/status", nil, &o.Status); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o.FeedbackEvents = srv.Metrics().FeedbackEvents
	var snap bytes.Buffer
	if err := est.SaveState(&snap); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o.Snapshot = snap.Bytes()
	return o, nil
}
