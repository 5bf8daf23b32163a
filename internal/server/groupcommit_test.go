package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/faultinject"
	"overprov/internal/units"
	"overprov/internal/wal"
	"overprov/internal/wire"
)

func completeBatchBody(ids []int64) string {
	var sb strings.Builder
	sb.WriteString(`{"completions":[`)
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"id":%d,"success":true}`, id)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// TestBatchCompletionSingleGroupAppend: a complete:batch request must
// journal its outcomes as ONE RecordOutcomes group — one commit ticket,
// one covering fsync — and a single completion as a group of one.
func TestBatchCompletionSingleGroupAppend(t *testing.T) {
	journal := &countingJournal{}
	cl, err := cluster.New(cluster.Spec{Nodes: 64, Mem: units.MemSize(64)})
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cluster: cl, Estimator: est, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const k = 5
	var ids []int64
	for i := 1; i <= k; i++ {
		do(t, h, "POST", "/api/v1/jobs", submitBody(i))
		ids = append(ids, int64(i))
	}
	if w := do(t, h, "POST", "/api/v1/complete:batch", completeBatchBody(ids)); w.Code != http.StatusOK {
		t.Fatalf("complete:batch: %d %s", w.Code, w.Body)
	}
	if len(journal.groups) != 1 || journal.groups[0] != k {
		t.Fatalf("append groups = %v, want exactly one group of %d", journal.groups, k)
	}
	m := srv.Metrics()
	if m.WALRecords != k || m.WALErrors != 0 {
		t.Fatalf("wal_records=%d wal_errors=%d, want %d and 0", m.WALRecords, m.WALErrors, k)
	}
	if m.FeedbackEvents != k {
		t.Fatalf("feedback_events=%d, want %d", m.FeedbackEvents, k)
	}

	// A lone completion is a group of one.
	do(t, h, "POST", "/api/v1/jobs", submitBody(9))
	if w := do(t, h, "POST", fmt.Sprintf("/api/v1/jobs/%d/complete", k+1), `{"success":true}`); w.Code != http.StatusOK {
		t.Fatalf("single complete: %d %s", w.Code, w.Body)
	}
	if len(journal.groups) != 2 || journal.groups[1] != 1 {
		t.Fatalf("after single complete: groups=%v, want [%d 1]", journal.groups, k)
	}
}

// TestBatchJournalFaultDegradesWholeGroup: a failed group append rides
// one ticket, so the error covers every record in the batch — all of
// them count as wal_errors, none as wal_records — and the completions
// are still acked and trained, exactly the degrade-don't-fail contract
// of the per-item path.
func TestBatchJournalFaultDegradesWholeGroup(t *testing.T) {
	walSched := faultinject.NewSchedule(faultinject.FailNth(faultinject.OpWALAppend, 1, nil))
	journal := &countingJournal{}
	srv := faultServer(t, faultinject.NewSchedule(), walSched, journal)
	h := srv.Handler()
	const k = 4
	var ids []int64
	for i := 1; i <= k; i++ {
		do(t, h, "POST", "/api/v1/jobs", submitBody(i))
		ids = append(ids, int64(i))
	}
	if w := do(t, h, "POST", "/api/v1/complete:batch", completeBatchBody(ids)); w.Code != http.StatusOK {
		t.Fatalf("complete:batch with failing journal: %d %s", w.Code, w.Body)
	}
	m := srv.Metrics()
	if m.WALErrors != k || m.WALRecords != 0 {
		t.Fatalf("wal_errors=%d wal_records=%d, want %d and 0 (one ticket covers the batch)", m.WALErrors, m.WALRecords, k)
	}
	if len(journal.groups) != 0 {
		t.Fatalf("the failed group reached the inner journal: groups=%v", journal.groups)
	}
	if m.FeedbackEvents != k || m.DegradedFeedbacks != 0 {
		t.Fatalf("feedback_events=%d degraded=%d, want %d and 0 (training survives a journal fault)", m.FeedbackEvents, m.DegradedFeedbacks, k)
	}
}

// TestGroupCommitServerEndToEnd: the full stack — HTTP batch
// completions through Server.feedback into a real group-commit wal.Log —
// must amortize fsyncs (wal_syncs ≪ wal_records in Metrics) and still
// recover every acked record after a crash-style reopen.
func TestGroupCommitServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Spec{Nodes: 64, Mem: units.MemSize(64)})
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cluster: cl, Estimator: est, Journal: l})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const batches, batchSize = 4, 8
	id := int64(0)
	for b := 0; b < batches; b++ {
		var ids []int64
		for i := 0; i < batchSize; i++ {
			id++
			do(t, h, "POST", "/api/v1/jobs", submitBody(int(id)))
			ids = append(ids, id)
		}
		if w := do(t, h, "POST", "/api/v1/complete:batch", completeBatchBody(ids)); w.Code != http.StatusOK {
			t.Fatalf("complete:batch %d: %d %s", b, w.Code, w.Body)
		}
	}
	m := srv.Metrics()
	if m.WALRecords != batches*batchSize {
		t.Fatalf("wal_records=%d, want %d", m.WALRecords, batches*batchSize)
	}
	// Sequential batches are one commit window each: one fsync per
	// batch, not per record.
	if m.WALSyncs != batches {
		t.Fatalf("wal_syncs=%d, want %d (one covering fsync per batch)", m.WALSyncs, batches)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-style reopen: every acked record replays.
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayed := 0
	if _, err := l2.Recover(nil, func(wal.Record) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != batches*batchSize {
		t.Fatalf("recovered %d records, want %d", replayed, batches*batchSize)
	}
}

// TestMetricsSurfaceShipStats: the journal's shipping counters reach
// /api/v1/metrics through the optional-interface probe, also behind the
// fault-injection wrapper, so read amplification is readable off a live
// leader: a poll that reads exactly what it ships keeps
// wal_ship_read_bytes == wal_ship_sent_bytes.
func TestMetricsSurfaceShipStats(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if _, err := l.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	srv := faultServer(t, faultinject.NewSchedule(), faultinject.NewSchedule(), l)
	h := srv.Handler()
	do(t, h, "POST", "/api/v1/jobs", submitBody(1))
	if w := do(t, h, "POST", "/api/v1/jobs/1/complete", `{"success":true}`); w.Code != http.StatusOK {
		t.Fatalf("complete: %d %s", w.Code, w.Body)
	}
	if m := srv.Metrics(); m.WALShipPolls != 0 || m.WALShipReadBytes != 0 || m.WALShipSentBytes != 0 {
		t.Fatalf("ship counters before any poll: %+v", m)
	}
	rep, err := l.ShipState(wire.WALFetch{Kind: wire.WALKindJournal, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ShipState(wire.WALFetch{Kind: wire.WALKindJournal, Gen: 1, Off: rep.Size}); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.WALShipPolls != 2 || m.WALShipSentBytes != rep.Size || m.WALShipReadBytes != m.WALShipSentBytes {
		t.Fatalf("wal_ship_polls=%d wal_ship_read_bytes=%d wal_ship_sent_bytes=%d, want 2 polls and %d bytes read and sent",
			m.WALShipPolls, m.WALShipReadBytes, m.WALShipSentBytes, rep.Size)
	}

	// The served JSON carries every counter under its documented key,
	// including release_errors (0: the allocation books are sound).
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/metrics", nil))
	var served map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"wal_ship_polls", "wal_ship_read_bytes", "wal_ship_sent_bytes", "release_errors"} {
		if _, ok := served[key]; !ok {
			t.Errorf("metrics JSON lacks %q: %s", key, rec.Body.Bytes())
		}
	}
	if got := string(served["release_errors"]); got != "0" {
		t.Errorf("release_errors = %s, want 0", got)
	}
}
