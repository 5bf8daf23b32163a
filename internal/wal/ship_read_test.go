// Shipping cost and race tests: a follower poll must read exactly the
// chunk it ships, never a byte past the acked prefix, and answer every
// lost race with a reset. They run over faultinject.FS, whose schedule
// counts the filesystem operations a poll performs — which is why they
// live in the external test package (the harness imports wal) and not
// beside the mirror suite in ship_test.go.
package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"overprov/internal/faultinject"
	"overprov/internal/wal"
	"overprov/internal/wire"
)

// countReads is a rule that injects nothing and fires on every file
// read, so Schedule.Fired counts Read and ReadAt calls.
func countReads() faultinject.Rule { return faultinject.SlowAll(faultinject.OpRead, 0) }

// shipLog opens a recovered Log in dir over a fault-injected
// filesystem. NoSync keeps the multi-chunk journals these tests build
// fast; shipping never looks at it.
func shipLog(t *testing.T, dir string, rules ...faultinject.Rule) (*wal.Log, *faultinject.Schedule) {
	t.Helper()
	sched := faultinject.NewSchedule(rules...)
	l, err := wal.Open(dir, wal.Options{FS: faultinject.NewFS(nil, sched), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(nil, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, sched
}

func appendIDs(t *testing.T, l *wal.Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := l.RecordOutcome(outcomeID(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// appendPast appends outcomes until the live journal holds more than
// min acked bytes, and returns its acked size.
func appendPast(t *testing.T, l *wal.Log, min uint64) uint64 {
	t.Helper()
	for id := 0; ; id += 500 {
		appendIDs(t, l, id, 500)
		if size := poll(t, l, wire.WALKindJournal, 1, 0).Size; size > min {
			return size
		}
	}
}

func poll(t *testing.T, l *wal.Log, kind uint8, gen, off uint64) wire.WALState {
	t.Helper()
	rep, err := l.ShipState(wire.WALFetch{Kind: kind, Gen: gen, Off: off})
	if err != nil {
		t.Fatalf("ShipState must redirect, never fail: %v", err)
	}
	return rep
}

func isReset(rep wire.WALState) bool { return rep.Flags&wire.WALFlagReset != 0 }

// syncTo drives the fetch/apply loop until the mirror is caught up.
func syncTo(t *testing.T, l *wal.Log, m *wal.Mirror) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		rep, err := l.ShipState(m.NextRequest())
		if err != nil {
			t.Fatal(err)
		}
		progress, err := m.Apply(rep)
		if err != nil {
			t.Fatal(err)
		}
		if g, b := m.Lag(); !progress && g == 0 && b == 0 {
			return
		}
	}
	t.Fatal("mirror did not converge")
}

// sameDump asserts the mirror directory replays exactly like the
// leader's and returns the shared snapshot bytes.
func sameDump(t *testing.T, leaderDir, mirrorDir string) []byte {
	t.Helper()
	lSnap, lRecs, err := wal.Dump(leaderDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	mSnap, mRecs, err := wal.Dump(mirrorDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lSnap, mSnap) {
		t.Fatalf("snapshot bytes differ: leader %d bytes, mirror %d", len(lSnap), len(mSnap))
	}
	if !reflect.DeepEqual(lRecs, mRecs) {
		t.Fatalf("record streams differ: leader %d records, mirror %d", len(lRecs), len(mRecs))
	}
	return mSnap
}

func journalPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%08d.wal", gen))
}

// requireUnitAmplification pins the cost model: every byte read for
// shipping was sent.
func requireUnitAmplification(t *testing.T, l *wal.Log) {
	t.Helper()
	_, read, sent := l.ShipStats()
	if sent == 0 || read != sent {
		t.Fatalf("ShipStats read %d bytes to send %d: amplification must be exactly 1", read, sent)
	}
}

// TestShipPollReadsOnlyItsChunk: a poll at offset X of an N-byte live
// journal is one open, one positional read of min(N−X, MaxWALChunk)
// bytes and one close — at every chunk-boundary offset — and a
// caught-up poll touches no file at all.
func TestShipPollReadsOnlyItsChunk(t *testing.T) {
	dir := t.TempDir()
	l, sched := shipLog(t, dir, countReads())
	const chunk = uint64(wire.MaxWALChunk)
	size := appendPast(t, l, 2*chunk+4096)
	file, err := os.ReadFile(journalPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(file)) != size {
		t.Fatalf("journal file is %d bytes, acked size %d", len(file), size)
	}

	for _, off := range []uint64{0, 8, chunk, size - chunk - 1, size - chunk, size - chunk + 1, size - 1} {
		want := size - off
		if want > chunk {
			want = chunk
		}
		polls0, read0, sent0 := l.ShipStats()
		ops0, reads0 := sched.Ops(), sched.Fired()
		rep := poll(t, l, wire.WALKindJournal, 1, off)
		if ops, reads := sched.Ops()-ops0, sched.Fired()-reads0; reads != 1 || ops != 3 {
			t.Errorf("poll at %d: %d file reads in %d filesystem ops, want one positional read between an open and a close", off, reads, ops)
		}
		if isReset(rep) || rep.Off != off || rep.Size != size || uint64(len(rep.Data)) != want {
			t.Fatalf("poll at %d: flags %#x off %d size %d with %d bytes, want %d of %d", off, rep.Flags, rep.Off, rep.Size, len(rep.Data), want, size)
		}
		if !bytes.Equal(rep.Data, file[off:off+want]) {
			t.Fatalf("poll at %d shipped bytes that are not the journal's", off)
		}
		polls, read, sent := l.ShipStats()
		if polls-polls0 != 1 || read-read0 != want || sent-sent0 != want {
			t.Errorf("poll at %d: ShipStats moved by (%d, %d, %d), want (1, %d, %d)", off, polls-polls0, read-read0, sent-sent0, want, want)
		}
	}

	ops0 := sched.Ops()
	rep := poll(t, l, wire.WALKindJournal, 1, size)
	if isReset(rep) || len(rep.Data) != 0 || rep.Size != size {
		t.Fatalf("caught-up poll: %+v", rep)
	}
	if ops := sched.Ops() - ops0; ops != 0 {
		t.Errorf("caught-up poll performed %d filesystem ops, want none", ops)
	}
	requireUnitAmplification(t, l)
}

// TestShipStopsAtAckedPrefix stages a failed append whose partial
// frame could not be truncated away: the journal file is longer than
// the acked size, and no poll — at the tail or across a whole sync —
// may ship a byte of the excess.
func TestShipStopsAtAckedPrefix(t *testing.T) {
	leaderDir, mirrorDir := t.TempDir(), t.TempDir()
	l, _ := shipLog(t, leaderDir,
		faultinject.Rule{Op: faultinject.OpWrite, Path: "journal-", Nth: 42, // header + 40 appends, then this one
			Fault: faultinject.Fault{Err: faultinject.ErrInjected, Partial: 11}},
		faultinject.FailAll(faultinject.OpTruncate, nil),
	)
	appendIDs(t, l, 0, 40)
	acked := poll(t, l, wire.WALKindJournal, 1, 0).Size
	if err := l.RecordOutcome(outcomeID(40)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("staged append error = %v, want injected", err)
	}
	info, err := os.Stat(journalPath(leaderDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(info.Size()) != acked+11 {
		t.Fatalf("journal file is %d bytes, want the %d acked plus 11 torn", info.Size(), acked)
	}

	for _, off := range []uint64{0, acked - 1, acked} {
		rep := poll(t, l, wire.WALKindJournal, 1, off)
		if isReset(rep) || rep.Size != acked || rep.Off+uint64(len(rep.Data)) != acked {
			t.Fatalf("poll at %d reached %d of an acked prefix of %d (size %d)", off, rep.Off+uint64(len(rep.Data)), acked, rep.Size)
		}
	}
	if rep := poll(t, l, wire.WALKindJournal, 1, acked+1); !isReset(rep) {
		t.Fatalf("poll inside the torn tail must reset, got %+v", rep)
	}

	m, err := wal.OpenMirror(mirrorDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	syncTo(t, l, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	mirrored, err := os.Stat(journalPath(mirrorDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(mirrored.Size()) != acked {
		t.Fatalf("mirror journal is %d bytes, want exactly the acked %d", mirrored.Size(), acked)
	}
	sameDump(t, leaderDir, mirrorDir)
}

// TestShipLostRacesDrawReset: whatever goes wrong between reading the
// positions and reading the file — the file deleted by a rotation, a
// failing read, a file shorter than the tracked length — the follower
// gets a reset, never an error and never a partial chunk.
func TestShipLostRacesDrawReset(t *testing.T) {
	snapshot := func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte("s"), 1000))
		return err
	}
	cases := []struct {
		name   string
		rules  []faultinject.Rule
		kind   uint8
		damage func(t *testing.T, dir string)
	}{
		{name: "journal removed", kind: wire.WALKindJournal,
			damage: func(t *testing.T, dir string) { mustDo(t, os.Remove(journalPath(dir, 2))) }},
		{name: "journal read fails", kind: wire.WALKindJournal,
			rules: []faultinject.Rule{faultinject.FailNth(faultinject.OpRead, 1, nil)}},
		{name: "journal short", kind: wire.WALKindJournal,
			damage: func(t *testing.T, dir string) { mustDo(t, os.Truncate(journalPath(dir, 2), 20)) }},
		{name: "snapshot removed", kind: wire.WALKindSnapshot,
			damage: func(t *testing.T, dir string) {
				mustDo(t, os.Remove(filepath.Join(dir, "snapshot-00000002.json")))
			}},
		{name: "snapshot read fails", kind: wire.WALKindSnapshot,
			rules: []faultinject.Rule{faultinject.FailNth(faultinject.OpRead, 1, nil)}},
		{name: "snapshot short", kind: wire.WALKindSnapshot,
			damage: func(t *testing.T, dir string) {
				mustDo(t, os.Truncate(filepath.Join(dir, "snapshot-00000002.json"), 999))
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := shipLog(t, dir, tc.rules...)
			if err := l.Rotate(snapshot); err != nil {
				t.Fatal(err)
			}
			appendIDs(t, l, 0, 10)
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			rep := poll(t, l, tc.kind, 2, 0)
			if !isReset(rep) || len(rep.Data) != 0 || rep.Gen != 2 || rep.SnapGen != 2 || rep.Seq != 2 {
				t.Fatalf("want a reset to generation 2, got %+v", rep)
			}
			if tc.damage == nil {
				// The injected fault was transient: the next poll ships.
				if rep := poll(t, l, tc.kind, 2, 0); isReset(rep) || len(rep.Data) == 0 {
					t.Fatalf("poll after the transient fault: %+v", rep)
				}
			}
		})
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestShipSnapshotChunking fetches snapshots whose lengths sit on the
// chunk boundary: each is shipped in ⌈size/MaxWALChunk⌉ positional
// reads of its own bytes (the length comes from Rotate, and from Open
// after a restart) and installs byte-identical.
func TestShipSnapshotChunking(t *testing.T) {
	const chunk = wire.MaxWALChunk
	for _, size := range []int{0, chunk - 1, chunk, chunk + 1, 2*chunk + 17} {
		leaderDir, mirrorDir := t.TempDir(), t.TempDir()
		payload := bytes.Repeat([]byte("0123456789abcdef"), size/16+1)[:size]
		l, sched := shipLog(t, leaderDir, countReads())
		appendIDs(t, l, 0, 5)
		if err := l.Rotate(func(w io.Writer) error {
			// Several writes: the length must be their sum.
			_, err := w.Write(payload[:size/3])
			if err == nil {
				_, err = w.Write(payload[size/3:])
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		appendIDs(t, l, 5, 3)

		reads0 := sched.Fired()
		m, err := wal.OpenMirror(mirrorDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		syncTo(t, l, m)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if snap := sameDump(t, leaderDir, mirrorDir); !bytes.Equal(snap, payload) {
			t.Fatalf("size %d: mirrored snapshot is %d bytes", size, len(snap))
		}
		// One read per snapshot chunk plus one for the journal suffix.
		if reads, want := sched.Fired()-reads0, (size+chunk-1)/chunk+1; reads != want {
			t.Errorf("size %d: %d file reads, want %d", size, reads, want)
		}
		requireUnitAmplification(t, l)

		// A restarted leader learns the length from the directory.
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, _ := shipLog(t, leaderDir)
		rep := poll(t, reopened, wire.WALKindSnapshot, 2, 0)
		wantFirst := size
		if wantFirst > chunk {
			wantFirst = chunk
		}
		if isReset(rep) || rep.Size != uint64(size) || len(rep.Data) != wantFirst {
			t.Fatalf("size %d after reopen: size %d, %d bytes, flags %#x", size, rep.Size, len(rep.Data), rep.Flags)
		}
	}
}

// TestShipSnapshotFetchAcrossRotation rotates the leader while a
// follower is between two chunks of a multi-chunk snapshot: the stale
// fetch draws a reset, the follower starts over on the new snapshot,
// and what it installs is byte-identical to the leader's.
func TestShipSnapshotFetchAcrossRotation(t *testing.T) {
	leaderDir, mirrorDir := t.TempDir(), t.TempDir()
	l, _ := shipLog(t, leaderDir)
	first := bytes.Repeat([]byte("first-snapshot/"), 50000)   // ~730 KiB, three chunks
	second := bytes.Repeat([]byte("second-snapshot!"), 40000) // 625 KiB, three chunks
	write := func(p []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write(p); return err }
	}
	appendIDs(t, l, 0, 10)
	if err := l.Rotate(write(first)); err != nil {
		t.Fatal(err)
	}
	m, err := wal.OpenMirror(mirrorDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		req := m.NextRequest()
		if req.Kind == wire.WALKindSnapshot && req.Off > 0 {
			break // one chunk of the first snapshot is in
		}
		rep, err := l.ShipState(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Apply(rep); err != nil {
			t.Fatal(err)
		}
	}
	appendIDs(t, l, 10, 4)
	if err := l.Rotate(write(second)); err != nil {
		t.Fatal(err)
	}
	appendIDs(t, l, 14, 6)
	if rep := poll(t, l, wire.WALKindSnapshot, 2, m.NextRequest().Off); !isReset(rep) || rep.SnapGen != 3 {
		t.Fatalf("fetch of the replaced snapshot must redirect to generation 3, got %+v", rep)
	}
	syncTo(t, l, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := sameDump(t, leaderDir, mirrorDir); !bytes.Equal(snap, second) {
		t.Fatalf("installed snapshot is %d bytes, want the second one's %d", len(snap), len(second))
	}
	requireUnitAmplification(t, l)
}

// TestShipCompletedGeneration covers the one arm that still reads a
// whole file: a journal kept by a failed rotation has no tracked
// length, so every chunk of it re-derives the clean length from the
// frames. The follower must cross it (WALFlagGenDone) and end
// byte-identical.
func TestShipCompletedGeneration(t *testing.T) {
	leaderDir, mirrorDir := t.TempDir(), t.TempDir()
	l, _ := shipLog(t, leaderDir,
		faultinject.Rule{Op: faultinject.OpWrite, Path: "snapshot-", Nth: 1,
			Fault: faultinject.Fault{Err: faultinject.ErrInjected, Partial: -1}})
	appendIDs(t, l, 0, 12)
	if err := l.Rotate(func(w io.Writer) error { _, err := w.Write([]byte("state")); return err }); err == nil {
		t.Fatal("Rotate must report the failed snapshot")
	}
	appendIDs(t, l, 12, 5)

	rep := poll(t, l, wire.WALKindJournal, 1, 0)
	if isReset(rep) || rep.Flags&wire.WALFlagGenDone == 0 || uint64(len(rep.Data)) != rep.Size {
		t.Fatalf("completed generation 1: %+v", rep)
	}
	m, err := wal.OpenMirror(mirrorDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	syncTo(t, l, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sameDump(t, leaderDir, mirrorDir)

	// A later successful rotation retires the kept generation and the
	// cost model holds again from there.
	if err := l.Rotate(func(w io.Writer) error { _, err := w.Write([]byte("state")); return err }); err != nil {
		t.Fatal(err)
	}
	if rep := poll(t, l, wire.WALKindJournal, 1, 0); !isReset(rep) {
		t.Fatalf("retired generation must reset, got %+v", rep)
	}
}

// TestShipConcurrentWithAppendsAndRotation follows a leader that keeps
// appending and rotating (multi-chunk snapshots) from another
// goroutine: every poll reads positions and files the writer is
// moving, lost races turn into resets, and once the writer stops the
// mirror converges byte-identical. Run under -race by `make chaos`.
func TestShipConcurrentWithAppendsAndRotation(t *testing.T) {
	leaderDir, mirrorDir := t.TempDir(), t.TempDir()
	l, _ := shipLog(t, leaderDir)
	m, err := wal.OpenMirror(mirrorDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		snapshot := bytes.Repeat([]byte("x"), wire.MaxWALChunk+4096)
		for round := 0; round < 20; round++ {
			for i := 0; i < 200; i++ {
				if err := l.RecordOutcome(outcomeID(round*200 + i)); err != nil {
					done <- err
					return
				}
			}
			snapshot[0] = byte(round)
			if err := l.Rotate(func(w io.Writer) error { _, err := w.Write(snapshot); return err }); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		rep, err := l.ShipState(m.NextRequest())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Apply(rep); err != nil {
			t.Fatal(err)
		}
	}
	syncTo(t, l, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	sameDump(t, leaderDir, mirrorDir)
	requireUnitAmplification(t, l)
}
