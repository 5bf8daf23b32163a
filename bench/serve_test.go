package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"overprov/internal/estimate"
	"overprov/internal/server"
	"overprov/internal/wal"
)

// A deployment whose first child cannot start must come back as an error,
// with the run directory gone, not as a panic in the deferred teardown.
func TestAFailedDeployReturnsItsErrorAndCleansUp(t *testing.T) {
	out := t.TempDir()
	for _, topo := range []topology{topoCluster, topoDirect, topoHTTP} {
		d, err := deploy(workload{Topo: topo}, filepath.Join(out, "no-such-schedd"), out)
		if err == nil || d != nil {
			t.Fatalf("topology %d: deploy with a missing binary returned %v, %v", topo, d, err)
		}
		if !strings.Contains(err.Error(), "starting backend") {
			t.Errorf("topology %d: error %q does not name the child that failed", topo, err)
		}
	}
	if left, _ := os.ReadDir(out); len(left) != 0 {
		t.Errorf("%d entries left under the out directory", len(left))
	}
}

// schedd answers healthz before it binds -wire-addr: the dial must wait for
// the listener, and give up once the child is gone.
func TestDialWaitsForTheListenerOrTheChildsExit(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	cl, est, err := newBackendParts()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Cluster: cl, Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	ws := server.NewWireServer(srv)
	go func() {
		time.Sleep(30 * time.Millisecond)
		ln, lerr := net.Listen("tcp", addr)
		if lerr != nil {
			return // the dial below times out and fails the test
		}
		_ = ws.Serve(ln)
	}()
	alive := &child{role: "backend", done: make(chan struct{})}
	conn, err := dialWhenListening(addr, alive)
	if err != nil {
		t.Fatalf("dial of a listener that binds 30 ms late: %v", err)
	}
	conn.close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = ws.Shutdown(ctx)

	gone := &child{role: "backend", done: make(chan struct{})}
	close(gone.done)
	dead, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dialWhenListening(dead, gone); err == nil || !strings.Contains(err.Error(), "exited") {
		t.Errorf("dial of an exited child's address returned %v", err)
	}
}

// A mirror one generation behind lacks the leader's whole current journal;
// on the same generation it lacks the difference.
func TestMirrorLagCountsAcrossARotation(t *testing.T) {
	_, est, err := newBackendParts()
	if err != nil {
		t.Fatal(err)
	}
	leader, mirror := t.TempDir(), t.TempDir()
	open := func(dir string) *wal.Log {
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Recover(nil, nil); err != nil {
			t.Fatal(err)
		}
		return l
	}
	ll, ml := open(leader), open(mirror)
	defer ll.Close()
	defer ml.Close()
	jobs := smallTrace(t, 1).Jobs
	appendN := func(l *wal.Log, from, to int) {
		for i := from; i < to; i++ {
			if err := l.RecordOutcome(estimate.Outcome{Job: &jobs[i], Allocated: jobs[i].ReqMem, Success: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(ll, 0, 5)
	appendN(ml, 0, 3)
	if got := mirrorLag(leader, mirror); got != 2 {
		t.Errorf("same generation, 5 against 3 records: lag %d, want 2", got)
	}
	appendN(ml, 3, 5)
	if got := mirrorLag(leader, mirror); got != 0 {
		t.Errorf("caught up: lag %d, want 0", got)
	}
	if err := ll.Rotate(est.SaveState); err != nil {
		t.Fatal(err)
	}
	appendN(ll, 5, 7)
	if got := mirrorLag(leader, mirror); got != 2 {
		t.Errorf("leader rotated and appended 2, mirror holds 5 of the old generation: lag %d, want 2", got)
	}
}
