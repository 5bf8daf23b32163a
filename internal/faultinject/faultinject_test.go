package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"overprov/internal/estimate"
	"overprov/internal/trace"
	"overprov/internal/units"
)

func TestRuleMatching(t *testing.T) {
	s := NewSchedule(
		FailNth("fs.write", 2, nil),
		FailAll("estimate", nil),
	)
	if f := s.Check("fs.write", "a"); f != nil {
		t.Error("first write should pass")
	}
	if f := s.Check("fs.read", "a"); f != nil {
		t.Error("reads never match a write rule")
	}
	if f := s.Check("fs.write", "a"); f == nil || !errors.Is(f.Err, ErrInjected) {
		t.Error("second write must fail")
	}
	if f := s.Check("fs.write", "a"); f != nil {
		t.Error("Nth rules fire exactly once")
	}
	for i := 0; i < 3; i++ {
		if f := s.Check("estimate", ""); f == nil {
			t.Error("FailAll must fire every time")
		}
	}
}

func TestPathFilter(t *testing.T) {
	s := NewSchedule(Rule{Op: OpWrite, Path: "snapshot-", Fault: Fault{Err: ErrInjected}})
	if f := s.Check(OpWrite, "/w/journal-00000001.wal"); f != nil {
		t.Error("journal writes must not match a snapshot path rule")
	}
	if f := s.Check(OpWrite, "/w/snapshot-00000002.json.tmp"); f == nil {
		t.Error("snapshot writes must match")
	}
}

func TestHaltSemantics(t *testing.T) {
	s := NewSchedule(HaltAt(3))
	for i := 0; i < 2; i++ {
		if f := s.Check("fs.sync", ""); f != nil {
			t.Fatalf("op %d faulted before the halt point", i+1)
		}
	}
	if s.Halted() {
		t.Fatal("halted before the trigger")
	}
	f := s.Check("fs.sync", "")
	if f == nil || !errors.Is(f.Err, ErrHalted) {
		t.Fatalf("halt did not fire: %v", f)
	}
	if !s.Halted() {
		t.Fatal("Halted() false after the halt fired")
	}
	// Every operation after the halt — any op, any path — fails too.
	for _, op := range []string{"fs.write", "fs.open", "estimate", "anything"} {
		f := s.Check(op, "x")
		if f == nil || !errors.Is(f.Err, ErrHalted) || f.Partial != -1 {
			t.Errorf("op %q survived the halt: %+v", op, f)
		}
	}
	if s.Ops() != 7 || s.Fired() < 1 {
		t.Errorf("counters: ops=%d fired=%d", s.Ops(), s.Fired())
	}
}

func TestSeededDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		s := NewSeeded(seed, 0.3, Fault{Err: ErrInjected})
		var fired []bool
		for i := 0; i < 64; i++ {
			fired = append(fired, s.Check("op", "") != nil)
		}
		return fired
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 64-op pattern (suspicious)")
	}
	any := false
	for _, f := range a {
		any = any || f
	}
	if !any {
		t.Error("probability 0.3 fired zero faults in 64 ops")
	}
}

func TestPartialWriteStaging(t *testing.T) {
	dir := t.TempDir()
	sched := NewSchedule(Rule{Op: OpWrite, Nth: 1, Fault: Fault{Err: ErrInjected, Partial: 3}})
	fsys := NewFS(nil, sched)
	f, err := fsys.OpenFile(filepath.Join(dir, "torn"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v, want injected", err)
	}
	if n != 3 {
		t.Fatalf("reported %d bytes written, want the partial 3", n)
	}
	f.Close()
	got, err := os.ReadFile(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("on disk %q, want the torn prefix %q", got, "abc")
	}
}

func TestLatencyOnly(t *testing.T) {
	sched := NewSchedule(SlowAll(OpEstimate, 20*time.Millisecond))
	inner, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(inner, sched)
	j := &trace.Job{ID: 1, Nodes: 1, ReqMem: units.MemSize(32), ReqTime: units.Seconds(60)}
	t0 := time.Now()
	if got := est.Estimate(j); !got.Eq(j.ReqMem) {
		t.Errorf("latency-only fault changed the estimate: %v", got)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Errorf("estimate returned in %v, injected latency missing", d)
	}
}

func TestEstimatorErrorPath(t *testing.T) {
	sched := NewSchedule(FailAll(OpEstimate, nil), FailAll(OpFeedback, nil))
	inner, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(inner, sched)
	// The wrapper must still satisfy the concurrency-safe marker, or the
	// server would re-wrap it and serialize the shards behind one mutex.
	var _ estimate.ConcurrencySafe = est
	var _ estimate.Fallible = est

	j := &trace.Job{ID: 1, Nodes: 1, ReqMem: units.MemSize(32), ReqTime: units.Seconds(60)}
	if _, err := est.TryEstimate(j); !errors.Is(err, ErrInjected) {
		t.Errorf("TryEstimate error = %v, want injected", err)
	}
	o := estimate.Outcome{Job: j, Allocated: units.MemSize(32), Success: true}
	if err := est.TryFeedback(o); !errors.Is(err, ErrInjected) {
		t.Errorf("TryFeedback error = %v, want injected", err)
	}
	if inner.NumGroups() != 0 {
		t.Error("failed feedback must not reach the inner estimator")
	}
}

func TestJournalWrapper(t *testing.T) {
	sched := NewSchedule(FailNth(OpWALAppend, 2, nil))
	var groups []int
	j := NewJournal(feedbackLogFunc(func(outcomes []estimate.Outcome) error {
		groups = append(groups, len(outcomes))
		return nil
	}), sched)
	o := estimate.Outcome{Success: true}
	if err := j.RecordOutcomes([]estimate.Outcome{o}); err != nil {
		t.Fatal(err)
	}
	// One injection point per group: the fault fails all three records.
	if err := j.RecordOutcomes([]estimate.Outcome{o, o, o}); !errors.Is(err, ErrInjected) {
		t.Fatalf("second append error = %v, want injected", err)
	}
	if err := j.RecordOutcomes([]estimate.Outcome{o, o}); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0] != 1 || groups[1] != 2 {
		t.Errorf("inner journal saw groups %v, want [1 2] (the faulted one must not pass through)", groups)
	}
}

// feedbackLogFunc adapts a function to the FeedbackLog interface.
type feedbackLogFunc func([]estimate.Outcome) error

func (f feedbackLogFunc) RecordOutcomes(outcomes []estimate.Outcome) error { return f(outcomes) }
