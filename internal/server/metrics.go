package server

import (
	"net/http"

	"overprov/internal/estimate"
)

// MetricsView is the GET /api/v1/metrics payload: the daemon's serving
// counters plus the estimator's concurrency counters. cmd/schedd mounts
// MetricsHandler on the -debug-addr listener next to net/http/pprof.
type MetricsView struct {
	// RequestsServed counts every API request the handler has seen.
	RequestsServed uint64 `json:"requests_served"`
	// FeedbackEvents counts completion reports delivered to the
	// estimator (batch items count individually).
	FeedbackEvents uint64 `json:"feedback_events"`
	// InFlight is the number of requests currently being served.
	InFlight int64 `json:"in_flight_requests"`
	// Draining reports whether a graceful shutdown has begun.
	Draining bool `json:"draining"`
	// WALRecords counts feedback outcomes durably journaled; WALErrors
	// counts journal appends that failed (the completion was still
	// acked — durability degraded, availability did not).
	WALRecords uint64 `json:"wal_records"`
	WALErrors  uint64 `json:"wal_errors"`
	// WALSyncs counts journal fsyncs issued by the append path, as
	// reported by the journal itself (0 when the journal does not
	// expose sync stats). WALSyncs/WALRecords is the fsync pressure per
	// completion — the quantity group commit (DESIGN.md §12) drives
	// down; loadgen reports the ratio after a run.
	WALSyncs uint64 `json:"wal_syncs"`
	// WALShipPolls counts follower polls the journal answered,
	// WALShipReadBytes the file bytes it read to answer them and
	// WALShipSentBytes the chunk bytes it sent (all 0 when the journal
	// does not ship). Read ÷ sent is the shipping read amplification:
	// 1.0 when a poll reads exactly what it ships (DESIGN.md §14).
	WALShipPolls     uint64 `json:"wal_ship_polls"`
	WALShipReadBytes uint64 `json:"wal_ship_read_bytes"`
	WALShipSentBytes uint64 `json:"wal_ship_sent_bytes"`
	// DegradedEstimates counts dispatches that fell back to the user's
	// requested capacity (the paper's no-estimation baseline) because
	// the estimator errored; DegradedFeedbacks counts feedback events
	// the estimator failed to learn from.
	DegradedEstimates uint64 `json:"degraded_estimates"`
	DegradedFeedbacks uint64 `json:"degraded_feedbacks"`
	// ReleaseErrors counts completions whose allocation the cluster
	// refused to take back — corrupt allocation books. Each such item
	// answered 500; it was still trained on and, if it failed, requeued.
	ReleaseErrors uint64 `json:"release_errors"`
	// Estimator carries the wrapper's counters: shard count, similarity
	// groups, estimates served, and the lock-wait-free read-path hits.
	Estimator estimate.ConcurrencyStats `json:"estimator"`
}

// concurrencyStatser is implemented by both estimate.Synchronized and
// estimate.ShardedSynchronized.
type concurrencyStatser interface {
	ConcurrencyStats() estimate.ConcurrencyStats
}

// syncStatser is the durability-counter surface of wal.Log (and of
// fault-injection wrappers that forward it).
type syncStatser interface {
	SyncStats() (records, syncs uint64)
}

// shipStatser is the shipping-counter surface of wal.Log (and of
// fault-injection wrappers that forward it).
type shipStatser interface {
	ShipStats() (polls, readBytes, sentBytes uint64)
}

// Metrics snapshots the serving counters. Reads only atomics and the
// estimator's own counters — s.mu is not taken, so scraping metrics
// never slows the serving path.
func (s *Server) Metrics() MetricsView {
	m := MetricsView{
		RequestsServed:    s.requests.Load(),
		FeedbackEvents:    s.feedbacks.Load(),
		InFlight:          s.inflight.Load(),
		Draining:          s.draining.Load(),
		WALRecords:        s.walRecords.Load(),
		WALErrors:         s.walErrors.Load(),
		DegradedEstimates: s.degradedEstimates.Load(),
		DegradedFeedbacks: s.degradedFeedbacks.Load(),
		ReleaseErrors:     s.releaseErrors.Load(),
	}
	if cs, ok := s.est.(concurrencyStatser); ok {
		m.Estimator = cs.ConcurrencyStats()
	}
	if ss, ok := s.cfg.Journal.(syncStatser); ok {
		_, m.WALSyncs = ss.SyncStats()
	}
	if ss, ok := s.cfg.Journal.(shipStatser); ok {
		m.WALShipPolls, m.WALShipReadBytes, m.WALShipSentBytes = ss.ShipStats()
	}
	return m
}

// MetricsHandler serves Metrics as JSON.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
}
