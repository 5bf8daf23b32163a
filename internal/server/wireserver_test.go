package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/wire"
)

// startWire attaches a wire listener to a daemon core and returns its
// address.
func startWire(t *testing.T, srv *Server) (*WireServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ws := NewWireServer(srv)
	go func() {
		if err := ws.Serve(ln); err != nil {
			t.Errorf("wire serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ws.Shutdown(ctx)
	})
	return ws, ln.Addr().String()
}

// wireClient is a minimal test client for the swp protocol.
type wireClient struct {
	t       *testing.T
	c       net.Conn
	fr      *wire.Reader
	bw      *bufio.Writer
	enc     wire.Encoder
	version uint8
}

func dialWire(t *testing.T, addr string) *wireClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	wc := &wireClient{t: t, c: c, fr: wire.NewReader(bufio.NewReader(c)), bw: bufio.NewWriter(c)}
	if err := wc.send(wc.enc.Hello(wire.Hello{Min: wire.VersionMin, Max: wire.VersionMax}, wire.VersionMin)); err != nil {
		t.Fatalf("hello send: %v", err)
	}
	f, err := wc.fr.ReadFrame()
	if err != nil {
		t.Fatalf("hello read: %v", err)
	}
	if f.Type != wire.TypeHello {
		t.Fatalf("hello reply type = %d (%s)", f.Type, wire.DecodeError(f.Payload))
	}
	wc.version = f.Version
	return wc
}

func (wc *wireClient) send(frame []byte) error {
	if _, err := wc.bw.Write(frame); err != nil {
		return err
	}
	return wc.bw.Flush()
}

// roundTrip sends a frame and decodes the result frame of type want.
func (wc *wireClient) roundTrip(frame []byte, want wire.FrameType) ([]wire.Result, error) {
	if err := wc.send(frame); err != nil {
		return nil, err
	}
	f, err := wc.fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	if f.Type == wire.TypeError {
		return nil, errors.New(wire.DecodeError(f.Payload))
	}
	if f.Type != want {
		wc.t.Fatalf("reply type = %d, want %d", f.Type, want)
	}
	return wire.DecodeResults(f.Payload, nil)
}

func (wc *wireClient) submit(jobs []wire.Job) []wire.Result {
	wc.t.Helper()
	res, err := wc.roundTrip(wc.enc.SubmitBatch(wc.version, jobs), wire.TypeSubmitResult)
	if err != nil {
		wc.t.Fatalf("wire submit: %v", err)
	}
	if len(res) != len(jobs) {
		wc.t.Fatalf("submit results = %d, want %d", len(res), len(jobs))
	}
	return res
}

func (wc *wireClient) complete(comps []wire.Completion) []wire.Result {
	wc.t.Helper()
	res, err := wc.roundTrip(wc.enc.CompleteBatch(wc.version, comps), wire.TypeCompleteResult)
	if err != nil {
		wc.t.Fatalf("wire complete: %v", err)
	}
	if len(res) != len(comps) {
		wc.t.Fatalf("complete results = %d, want %d", len(res), len(comps))
	}
	return res
}

func TestWireSubmitComplete(t *testing.T) {
	srv, _, _ := shardedServer(t, 8)
	_, addr := startWire(t, srv)
	wc := dialWire(t, addr)

	jobs := []wire.Job{
		{User: 1, App: 1, Nodes: 2, ReqMemMB: 24, ReqTimeS: 60},
		{User: 2, App: 1, Nodes: 1, ReqMemMB: 32, ReqTimeS: 60},
		{User: 3, App: 2, Nodes: 0, ReqMemMB: 16, ReqTimeS: 60}, // invalid
	}
	res := wc.submit(jobs)
	if res[0].State != wire.StateRunning || res[1].State != wire.StateRunning {
		t.Fatalf("valid jobs not running: %+v", res)
	}
	if res[2].Err == "" {
		t.Fatalf("invalid job not rejected per-item: %+v", res[2])
	}
	comp := wc.complete([]wire.Completion{
		{ID: res[0].ID, Success: true},
		{ID: res[1].ID, Success: true},
		{ID: 99999, Success: true}, // unknown id
	})
	if comp[0].State != wire.StateDone || comp[1].State != wire.StateDone {
		t.Fatalf("completions not done: %+v", comp)
	}
	if comp[2].Err == "" || comp[2].ID != 99999 {
		t.Fatalf("unknown id must echo a per-item error: %+v", comp[2])
	}
}

func TestWireVersionSkewRejected(t *testing.T) {
	srv, _, _ := shardedServer(t, 2)
	_, addr := startWire(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var enc wire.Encoder
	bw := bufio.NewWriter(c)
	frame := enc.Hello(wire.Hello{Min: wire.VersionMax + 1, Max: wire.VersionMax + 3}, wire.VersionMax+1)
	if _, err := bw.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	f, err := wire.NewReader(bufio.NewReader(c)).ReadFrame()
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if f.Type != wire.TypeError {
		t.Fatalf("reply type = %d, want Error", f.Type)
	}
	// The server closes the connection after the error frame.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.NewReader(c).ReadFrame(); err == nil {
		t.Fatal("connection stayed open after version skew")
	}
}

// TestWireCorruptFrameNeverPartiallyApplies flips a payload bit and
// checks the server answers with an Error frame and applies nothing:
// frame validation is all-or-nothing, so a torn or corrupt batch can
// never submit a subset of its jobs.
func TestWireCorruptFrameNeverPartiallyApplies(t *testing.T) {
	srv, ts, _ := shardedServer(t, 8)
	_, addr := startWire(t, srv)
	wc := dialWire(t, addr)

	var enc wire.Encoder
	frame := append([]byte(nil), enc.SubmitBatch(wc.version, []wire.Job{
		{User: 1, App: 1, Nodes: 1, ReqMemMB: 24, ReqTimeS: 60},
		{User: 2, App: 1, Nodes: 1, ReqMemMB: 24, ReqTimeS: 60},
	})...)
	frame[len(frame)-3] ^= 0x10
	if _, err := wc.roundTrip(frame, wire.TypeSubmitResult); err == nil {
		t.Fatal("corrupt frame accepted")
	}

	var st StatusView
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if st.Running != 0 || st.Queued != 0 || st.Dispatches != 0 {
		t.Fatalf("corrupt frame partially applied: %+v", st)
	}
}

// TestWireHTTPEquivalence drives the identical workload through the
// wire protocol, through the HTTP batch endpoints and through the
// single-job HTTP endpoints on three identical servers and requires
// byte-identical estimator state: the protocol and the batching must
// change the encoding, never the learning.
func TestWireHTTPEquivalence(t *testing.T) {
	build := func() (*Server, *estimate.ShardedSynchronized) {
		cl, err := cluster.New(cluster.Spec{Nodes: 64, Mem: 24}, cluster.Spec{Nodes: 64, Mem: 32})
		if err != nil {
			t.Fatal(err)
		}
		est, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{
			Alpha: 2, Round: cl,
		}, 8)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Cluster: cl, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		return srv, est
	}

	// The workload: three waves of submissions across users/apps, the
	// middle wave completing unsuccessfully once (exercising requeue +
	// estimate restoration) before succeeding.
	type wave struct {
		jobs []wire.Job
		fail bool
	}
	waves := []wave{
		{jobs: []wire.Job{
			{User: 1, App: 1, Nodes: 2, ReqMemMB: 30, ReqTimeS: 100},
			{User: 1, App: 2, Nodes: 1, ReqMemMB: 24, ReqTimeS: 50},
			{User: 2, App: 1, Nodes: 4, ReqMemMB: 32, ReqTimeS: 200},
		}},
		{fail: true, jobs: []wire.Job{
			{User: 1, App: 1, Nodes: 2, ReqMemMB: 30, ReqTimeS: 100},
			{User: 3, App: 3, Nodes: 8, ReqMemMB: 16, ReqTimeS: 10},
		}},
		{jobs: []wire.Job{
			{User: 2, App: 1, Nodes: 4, ReqMemMB: 32, ReqTimeS: 200},
			{User: 1, App: 2, Nodes: 1, ReqMemMB: 24, ReqTimeS: 50},
			{User: 3, App: 3, Nodes: 2, ReqMemMB: 16, ReqTimeS: 10},
		}},
	}

	// Wire run.
	wireSrv, wireEst := build()
	_, addr := startWire(t, wireSrv)
	wc := dialWire(t, addr)
	for _, w := range waves {
		res := wc.submit(w.jobs)
		var comps []wire.Completion
		for _, r := range res {
			if r.Err != "" {
				t.Fatalf("wire submit error: %s", r.Err)
			}
			comps = append(comps, wire.Completion{ID: r.ID, Success: !w.fail})
		}
		cres := wc.complete(comps)
		if w.fail {
			// Each failed job requeued and re-dispatched; finish it.
			var again []wire.Completion
			for _, r := range cres {
				if r.State != wire.StateRunning {
					t.Fatalf("failed job not re-dispatched: %+v", r)
				}
				again = append(again, wire.Completion{ID: r.ID, Success: true})
			}
			wc.complete(again)
		}
	}

	// HTTP run, same workload.
	httpSrv, httpEst := build()
	ts := httptest.NewServer(httpSrv.Handler())
	defer ts.Close()
	for _, w := range waves {
		var req SubmitBatchRequest
		for _, j := range w.jobs {
			req.Jobs = append(req.Jobs, SubmitRequest{
				User: int(j.User), App: int(j.App), Nodes: int(j.Nodes),
				ReqMemMB: j.ReqMemMB, ReqTimeS: j.ReqTimeS,
			})
		}
		var resp BatchResponse
		doJSON(t, "POST", ts.URL+"/api/v1/jobs:batch", req, 200, &resp)
		var comp CompleteBatchRequest
		for _, r := range resp.Results {
			if r.Error != "" || r.Job == nil {
				t.Fatalf("http submit error: %+v", r)
			}
			comp.Completions = append(comp.Completions, CompletionItem{ID: r.Job.ID, Success: !w.fail})
		}
		var cresp BatchResponse
		doJSON(t, "POST", ts.URL+"/api/v1/complete:batch", comp, 200, &cresp)
		if w.fail {
			var again CompleteBatchRequest
			for _, r := range cresp.Results {
				if r.Job == nil || r.Job.State != StateRunning {
					t.Fatalf("failed job not re-dispatched: %+v", r)
				}
				again.Completions = append(again.Completions, CompletionItem{ID: r.Job.ID, Success: true})
			}
			doJSON(t, "POST", ts.URL+"/api/v1/complete:batch", again, 200, &cresp)
		}
	}

	// Single-job HTTP run, same workload: one request per job, in the
	// order the batches listed them.
	singleSrv, singleEst := build()
	ss := httptest.NewServer(singleSrv.Handler())
	defer ss.Close()
	for _, w := range waves {
		var ids []int64
		for _, j := range w.jobs {
			var v JobView
			doJSON(t, "POST", ss.URL+"/api/v1/jobs", SubmitRequest{
				User: int(j.User), App: int(j.App), Nodes: int(j.Nodes),
				ReqMemMB: j.ReqMemMB, ReqTimeS: j.ReqTimeS,
			}, 201, &v)
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			var v JobView
			doJSON(t, "POST", fmt.Sprintf("%s/api/v1/jobs/%d/complete", ss.URL, id),
				CompleteRequest{Success: !w.fail}, 200, &v)
			if w.fail && v.State != StateRunning {
				t.Fatalf("failed job not re-dispatched: %+v", v)
			}
		}
		if w.fail {
			for _, id := range ids {
				doJSON(t, "POST", fmt.Sprintf("%s/api/v1/jobs/%d/complete", ss.URL, id),
					CompleteRequest{Success: true}, 200, nil)
			}
		}
	}

	var wireState, httpState, singleState bytes.Buffer
	if err := wireEst.SaveState(&wireState); err != nil {
		t.Fatalf("wire SaveState: %v", err)
	}
	if err := httpEst.SaveState(&httpState); err != nil {
		t.Fatalf("http SaveState: %v", err)
	}
	if err := singleEst.SaveState(&singleState); err != nil {
		t.Fatalf("single SaveState: %v", err)
	}
	if !bytes.Equal(wireState.Bytes(), httpState.Bytes()) {
		t.Fatalf("estimator state diverged between wire and HTTP runs:\nwire: %d bytes\nhttp: %d bytes\nwire: %s\nhttp: %s",
			wireState.Len(), httpState.Len(), wireState.String(), httpState.String())
	}
	if !bytes.Equal(wireState.Bytes(), singleState.Bytes()) {
		t.Fatalf("estimator state diverged between wire and single-job HTTP runs:\nwire:   %s\nsingle: %s",
			wireState.String(), singleState.String())
	}
}

// TestWireAdmissionHammerWithRotation is the -race exercise of the
// admission queue: wire clients and HTTP batch clients submit and
// complete concurrently while rotations (Quiesce) and estimator
// snapshots run in flight. The invariant checked at the end is
// conservation: every node allocated during the churn came back.
func TestWireAdmissionHammerWithRotation(t *testing.T) {
	srv, ts, est := shardedServer(t, 256)
	_, addr := startWire(t, srv)

	const clients = 4
	const rounds = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Rotation churn: Quiesce with an estimator snapshot inside, the
	// shape cmd/schedd's persist loop uses. It gets its own WaitGroup:
	// it runs until the serving churn is done.
	var rotWG sync.WaitGroup
	rotWG.Add(1)
	go func() {
		defer rotWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.Quiesce(func() error { return est.SaveState(io.Discard) }); err != nil {
				t.Errorf("Quiesce: %v", err)
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			wc := dialWire(t, addr)
			for r := 0; r < rounds; r++ {
				jobs := []wire.Job{
					{User: int32(c), App: 1, Nodes: 2, ReqMemMB: 24, ReqTimeS: 60},
					{User: int32(c), App: 2, Nodes: 1, ReqMemMB: 32, ReqTimeS: 60},
				}
				res := wc.submit(jobs)
				var comps []wire.Completion
				for _, item := range res {
					if item.Err != "" {
						t.Errorf("client %d: submit err %s", c, item.Err)
						return
					}
					// Fail every 5th round once to exercise requeue
					// under contention.
					comps = append(comps, wire.Completion{ID: item.ID, Success: r%5 != 0})
				}
				cres := wc.complete(comps)
				var again []wire.Completion
				for _, item := range cres {
					if item.Err != "" {
						t.Errorf("client %d: complete err %s", c, item.Err)
						return
					}
					if item.State == wire.StateRunning {
						again = append(again, wire.Completion{ID: item.ID, Success: true})
					}
				}
				if len(again) > 0 {
					wc.complete(again)
				}
			}
		}(c)
	}

	// HTTP batch clients sharing the same server.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := SubmitBatchRequest{Jobs: []SubmitRequest{
					{User: 100 + c, App: 3, Nodes: 1, ReqMemMB: 24, ReqTimeS: 30},
				}}
				var resp BatchResponse
				doJSON(t, "POST", ts.URL+"/api/v1/jobs:batch", req, 200, &resp)
				var comp CompleteBatchRequest
				for _, item := range resp.Results {
					if item.Job == nil {
						t.Errorf("http client %d: %+v", c, item)
						return
					}
					comp.Completions = append(comp.Completions, CompletionItem{ID: item.Job.ID, Success: true})
				}
				var cresp BatchResponse
				doJSON(t, "POST", ts.URL+"/api/v1/complete:batch", comp, 200, &cresp)
			}
		}(c)
	}

	// Stop rotations only after the serving churn is done.
	wg.Wait()
	close(stop)
	rotWG.Wait()

	var st StatusView
	doJSON(t, "GET", ts.URL+"/api/v1/status", nil, 200, &st)
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("work left after churn: %+v", st)
	}
	if st.FreeNodes != st.Total {
		t.Fatalf("node conservation violated: %d free of %d after all completions", st.FreeNodes, st.Total)
	}
}

// TestWireDrainClosesConnections checks Shutdown semantics: after
// Shutdown returns, new dials fail and existing connections are gone.
func TestWireDrainClosesConnections(t *testing.T) {
	srv, _, _ := shardedServer(t, 2)
	ws, addr := startWire(t, srv)
	wc := dialWire(t, addr)
	wc.submit([]wire.Job{{User: 1, App: 1, Nodes: 1, ReqMemMB: 24, ReqTimeS: 10}})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial succeeded after Shutdown")
	}
	// The server may send one final Error frame (deadline fault) before
	// closing; the stream must still end promptly.
	_ = wc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; ; i++ {
		_, err := wc.fr.ReadFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("existing connection still open after Shutdown")
			}
			break
		}
		if i > 2 {
			t.Fatal("existing connection still serving frames after Shutdown")
		}
	}
}
