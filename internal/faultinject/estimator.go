package faultinject

import (
	"overprov/internal/estimate"
	"overprov/internal/trace"
	"overprov/internal/units"
)

// Estimator operation names.
const (
	OpEstimate = "estimate"
	OpFeedback = "feedback"
)

// WAL operation name used by Journal.
const OpWALAppend = "wal.append"

// Estimator wraps a concurrency-safe estimator with fault injection.
// Embedding promotes the wrapped estimator's concurrency-safety marker,
// so internal/server accepts the wrapper without re-wrapping it in a
// mutex; it also implements estimate.Fallible, which is the error
// surface the server's graceful-degradation path consumes.
//
// Estimate/Feedback (the infallible interface) only inject latency —
// they have no error channel; TryEstimate/TryFeedback inject both.
type Estimator struct {
	estimate.ConcurrencySafe
	sched *Schedule
}

// NewEstimator wraps inner with sched.
func NewEstimator(inner estimate.ConcurrencySafe, sched *Schedule) *Estimator {
	return &Estimator{ConcurrencySafe: inner, sched: sched}
}

// Estimate implements estimate.Estimator, injecting latency only.
func (e *Estimator) Estimate(j *trace.Job) units.MemSize {
	e.sched.Check(OpEstimate, "").Sleep()
	return e.ConcurrencySafe.Estimate(j)
}

// Feedback implements estimate.Estimator, injecting latency only.
func (e *Estimator) Feedback(o estimate.Outcome) {
	e.sched.Check(OpFeedback, "").Sleep()
	e.ConcurrencySafe.Feedback(o)
}

// TryEstimate implements estimate.Fallible.
func (e *Estimator) TryEstimate(j *trace.Job) (units.MemSize, error) {
	if f := e.sched.Check(OpEstimate, ""); f != nil {
		f.Sleep()
		if f.Err != nil {
			return 0, f.Err
		}
	}
	return e.ConcurrencySafe.Estimate(j), nil
}

// TryFeedback implements estimate.Fallible.
func (e *Estimator) TryFeedback(o estimate.Outcome) error {
	if f := e.sched.Check(OpFeedback, ""); f != nil {
		f.Sleep()
		if f.Err != nil {
			return f.Err
		}
	}
	e.ConcurrencySafe.Feedback(o)
	return nil
}

// FeedbackLog matches internal/server's journal surface (structurally,
// to keep this package free of a server dependency).
type FeedbackLog interface {
	RecordOutcomes(outcomes []estimate.Outcome) error
}

// Journal wraps a feedback WAL with fault injection on the append path.
type Journal struct {
	inner FeedbackLog
	sched *Schedule
}

// NewJournal wraps inner with sched.
func NewJournal(inner FeedbackLog, sched *Schedule) *Journal {
	return &Journal{inner: inner, sched: sched}
}

// RecordOutcomes implements the server's FeedbackLog: one injection
// point per call — a call is one append group with one ticket, so a
// fault here fails the whole group, exactly like a leader error. The
// server makes one call per completion request, so an OpWALAppend
// occurrence count is a count of completion requests.
func (j *Journal) RecordOutcomes(outcomes []estimate.Outcome) error {
	if f := j.sched.Check(OpWALAppend, ""); f != nil {
		f.Sleep()
		if f.Err != nil {
			return f.Err
		}
	}
	return j.inner.RecordOutcomes(outcomes)
}

// SyncStats forwards the inner journal's durability counters when it
// has them, so a fault-injected daemon still reports wal_syncs.
func (j *Journal) SyncStats() (records, syncs uint64) {
	if ss, ok := j.inner.(interface{ SyncStats() (uint64, uint64) }); ok {
		return ss.SyncStats()
	}
	return 0, 0
}

// ShipStats forwards the inner journal's shipping counters when it has
// them, so a fault-injected daemon still reports wal_ship_*.
func (j *Journal) ShipStats() (polls, readBytes, sentBytes uint64) {
	if ss, ok := j.inner.(interface {
		ShipStats() (uint64, uint64, uint64)
	}); ok {
		return ss.ShipStats()
	}
	return 0, 0, 0
}
