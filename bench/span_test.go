package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "estimate", Start: 10, End: 30, Parent: 0},
		{Name: "wal", Start: 20, End: 50, Parent: 0},   // overlaps estimate: 20-30 counted once
		{Name: "wal", Start: 90, End: 120, Parent: 0},  // runs past its parent: clipped at 100
		{Name: "fsync", Start: 25, End: 45, Parent: 2}, // grandchild: only its own parent's
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	// request: 100 − (10..50 = 40) − (90..100 = 10) = 50; wal#2: 30 − 20 = 10.
	want := []int64{50, 20, 10, 30, 20, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerLinksChildrenToTheOpenRequest(t *testing.T) {
	tr := newTracer()
	tr.round.Store(7)
	id := tr.begin("server.wire_submit", -1)
	tr.cur.Store(id)
	tr.child("estimate.estimate", tr.now())
	tr.cur.Store(-1)
	tr.end(id)
	tr.child("stray", tr.now())
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	if s := tr.spans[1]; s.Parent != id || s.Round != 7 || s.Name != "estimate.estimate" {
		t.Errorf("child span %+v, want parent %d round 7", s, id)
	}
	if tr.spans[2].Parent != -1 {
		t.Errorf("a span recorded outside a request has parent %d, want -1", tr.spans[2].Parent)
	}
	tot := tr.totals()
	if tot["server.wire_submit"].Count != 1 || tot["server.wire_submit"].Self > tot["server.wire_submit"].Total {
		t.Errorf("totals %+v", tot)
	}
}
