package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"overprov/internal/wire"
)

// fakeClock is a clock that only moves when told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

// fakeServer is a transport that behaves like the daemon: a job whose
// completion is reported unsuccessful is re-dispatched (running again)
// until maxAttempts, then failed. Each request takes service on the fake
// clock, except request number stallAt, which takes stall. A job's User
// field says how many of its executions must be reported failed; a report
// that disagrees is recorded in wrong.
type fakeServer struct {
	clk      *fakeClock
	service  time.Duration
	stallAt  int
	stall    time.Duration
	requests int
	nextID   int64
	mustFail map[int64]int
	attempts map[int64]int
	wrong    []string
	sizes    []int // items per completion request
}

func newFakeServer(clk *fakeClock) *fakeServer {
	return &fakeServer{clk: clk, service: time.Millisecond, stallAt: -1, mustFail: map[int64]int{}, attempts: map[int64]int{}}
}

func (f *fakeServer) tick() {
	d := f.service
	if f.requests == f.stallAt {
		d = f.stall
	}
	f.requests++
	f.clk.t = f.clk.t.Add(d)
}

func (f *fakeServer) submit(jobs []scriptJob, dst []result) ([]result, error) {
	f.tick()
	for _, j := range jobs {
		f.nextID++
		f.mustFail[f.nextID] = int(j.User)
		dst = append(dst, result{ID: f.nextID, State: wire.StateRunning})
	}
	return dst, nil
}

func (f *fakeServer) complete(ids []int64, success []bool, dst []result) ([]result, error) {
	f.tick()
	f.sizes = append(f.sizes, len(ids))
	for i, id := range ids {
		f.attempts[id]++
		wantFail := f.attempts[id] <= f.mustFail[id]
		if success[i] == wantFail {
			f.wrong = append(f.wrong, fmt.Sprintf("job %d attempt %d reported success=%v", id, f.attempts[id], success[i]))
		}
		switch {
		case success[i]:
			dst = append(dst, result{ID: id, State: wire.StateDone})
		case f.attempts[id] >= maxAttempts:
			dst = append(dst, result{ID: id, State: wire.StateFailed})
		default:
			dst = append(dst, result{ID: id, State: wire.StateRunning})
		}
	}
	return dst, nil
}

func (f *fakeServer) close() {}

// failScript makes a one-connection script whose i-th job must fail
// fails[i] times; it returns the matching oracle table too.
func failScript(batch int, fails []uint8) (*script, []uint8) {
	jobs := make([]scriptJob, len(fails))
	for i, n := range fails {
		jobs[i] = scriptJob{User: int32(n), App: int32(i), Nodes: 1, ReqMemMB: 32}
	}
	return &script{Batch: batch, Conn: [][]scriptJob{jobs}}, fails
}

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	srv := newFakeServer(clk)
	srv.stallAt, srv.stall = 4, 35*time.Millisecond // round 2's submit
	sc, fails := failScript(1, make([]uint8, 10))
	g := newConnGen(srv, clk, sc, 0, fails)
	// One connection at 100 rounds/s: round k is due at k·10 ms and takes
	// 2 ms (submit, completion). Round 2's submit stalls until 55 ms, so
	// rounds 3 to 6 start late and must be timed from when they were due.
	got := runPhase([]*connGen{g}, phase{From: 0, To: 10, Rate: 100}, clk)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	if want := ms(1, 1, 35, 27, 19, 11, 3, 1, 1, 1); !reflect.DeepEqual(got.SubmitLat, want) {
		t.Errorf("submit latencies %v, want %v", got.SubmitLat, want)
	}
	if want := ms(0, 0, 0, 26, 18, 10, 2, 0, 0, 0); !reflect.DeepEqual(got.SendLag, want) {
		t.Errorf("send lags %v, want %v", got.SendLag, want)
	}
	// A completion report is timed from its own send: always 1 ms here.
	for i, l := range got.CompleteLat {
		if l != time.Millisecond {
			t.Errorf("completion %d latency %v, want 1ms", i, l)
		}
	}
	if got.Wall != 92*time.Millisecond {
		t.Errorf("phase took %v of fake time, want 92ms", got.Wall)
	}
}

func TestARedispatchedJobIsFollowedToATerminalState(t *testing.T) {
	fails := []uint8{0, 2, 0, maxAttempts, 1, 0, 0, 3}
	for _, batch := range []int{1, 4} {
		clk := &fakeClock{t: time.Unix(1000, 0)}
		srv := newFakeServer(clk)
		sc, table := failScript(batch, fails)
		g := newConnGen(srv, clk, sc, 0, table)
		got := runPhase([]*connGen{g}, phase{From: 0, To: len(fails) / batch, Flush: true}, clk)
		if got.Err != nil {
			t.Fatalf("batch %d: %v", batch, got.Err)
		}
		if len(srv.wrong) > 0 {
			t.Errorf("batch %d: outcomes not as scripted: %v", batch, srv.wrong)
		}
		if got.Mismatches != 0 || got.FailedRequests != 0 {
			t.Errorf("batch %d: %d mismatches, %d failed requests", batch, got.Mismatches, got.FailedRequests)
		}
		if got.Jobs != 8 || got.Done != 7 || got.Lost != 1 {
			t.Errorf("batch %d: jobs/done/lost %d/%d/%d, want 8/7/1", batch, got.Jobs, got.Done, got.Lost)
		}
		// 7 jobs succeed after 0+2+0+1+0+0+3 failures; the lost one fails 10 times.
		if got.Executions != 7+6+maxAttempts || got.FailedExecs != 6+maxAttempts {
			t.Errorf("batch %d: executions/failed %d/%d, want %d/%d", batch, got.Executions, got.FailedExecs, 7+6+maxAttempts, 6+maxAttempts)
		}
		if len(g.pend) != 0 {
			t.Errorf("batch %d: %d jobs left running", batch, len(g.pend))
		}
		if batch == 4 {
			// Carried: a re-dispatched job rides the next round's report,
			// so the first two rounds make one completion request each.
			if srv.sizes[0] != 4 || srv.sizes[1] != 4+2 {
				t.Errorf("completion request sizes %v, want 4 then 6 (4 new + 2 carried)", srv.sizes)
			}
		}
	}
}

func TestARecordingGeneratorWritesTheTableAReplayNeeds(t *testing.T) {
	// The fake server ignores allocations, so drive the recording path by
	// its rule directly: usage above the allocation fails.
	jobs := []scriptJob{{UsedMemMB: 10}, {UsedMemMB: 30}}
	g := &connGen{jobs: jobs, fails: make([]uint8, 2), record: true}
	g.pend = []pendJob{{idx: 0, id: 1, allocMB: 24}, {idx: 1, id: 2, allocMB: 24}}
	clk := &fakeClock{t: time.Unix(0, 0)}
	srv := newFakeServer(clk)
	srv.mustFail[1], srv.mustFail[2] = 0, 1
	g.t, g.clk = srv, clk
	if err := g.reportPending(nil); err != nil {
		t.Fatal(err)
	}
	if g.fails[0] != 0 || g.fails[1] != 1 {
		t.Errorf("recorded fails %v, want [0 1]", g.fails)
	}
	if len(g.pend) != 1 || g.pend[0].idx != 1 || g.pend[0].attempt != 1 {
		t.Errorf("pending after one report: %+v, want job 1 on its second attempt", g.pend)
	}
	if len(srv.wrong) > 0 || g.st.Mismatches != 0 {
		t.Errorf("recording diverged: %v, %d mismatches", srv.wrong, g.st.Mismatches)
	}
}
