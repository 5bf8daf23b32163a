package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/faultinject"
	"overprov/internal/server"
	"overprov/internal/units"
)

// slowDaemon starts a real listener whose estimator sleeps estLatency
// per call, so requests can be caught in flight by drain.
func slowDaemon(t *testing.T, estLatency time.Duration) (*server.Server, *http.Server, string) {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{Nodes: 64, Mem: units.MemSize(64)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := faultinject.NewSchedule(faultinject.SlowAll(faultinject.OpEstimate, estLatency))
	srv, err := server.New(server.Config{Cluster: cl, Estimator: faultinject.NewEstimator(inner, sched)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	t.Cleanup(func() { httpSrv.Close() })
	return srv, httpSrv, "http://" + ln.Addr().String()
}

// submitInBackground fires a submission and reports its outcome.
func submitInBackground(t *testing.T, base string) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/api/v1/jobs", "application/json",
			strings.NewReader(`{"user":1,"app":1,"nodes":1,"req_mem_mb":32,"req_time_s":600}`))
		if err != nil {
			done <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			done <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		done <- nil
	}()
	return done
}

func waitInFlight(t *testing.T, srv *server.Server) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if srv.InFlight() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("request never became in-flight")
}

// TestDrainWaitsForInFlight: a request stuck behind a slow estimator
// finishes when the drain deadline is generous.
func TestDrainWaitsForInFlight(t *testing.T) {
	srv, httpSrv, base := slowDaemon(t, 300*time.Millisecond)
	done := submitInBackground(t, base)
	waitInFlight(t, srv)

	res := drain(srv, httpSrv, nil, nil, 10*time.Second)
	if !res.Clean {
		t.Fatalf("drain not clean: %v", res)
	}
	if res.Drained < 1 || res.Aborted != 0 {
		t.Fatalf("drained=%d aborted=%d, want the slow request drained", res.Drained, res.Aborted)
	}
	if err := <-done; err != nil {
		t.Fatalf("drained request failed anyway: %v", err)
	}
	if !srv.Draining() {
		t.Error("server not marked draining")
	}
}

// TestDrainDeadlineAborts: with a deadline far shorter than the stuck
// request, drain gives up, reports it, and does not hang.
func TestDrainDeadlineAborts(t *testing.T) {
	srv, httpSrv, base := slowDaemon(t, 3*time.Second)
	done := submitInBackground(t, base)
	waitInFlight(t, srv)

	t0 := time.Now()
	res := drain(srv, httpSrv, nil, nil, 50*time.Millisecond)
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("drain blocked %v past its 50ms deadline", took)
	}
	if res.Clean {
		t.Fatalf("drain reported clean with a 3s request in flight: %v", res)
	}
	<-done // the aborted request errors out; just reap the goroutine
}
