package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"overprov/internal/estimate"
)

// Options configures a Log.
type Options struct {
	// FS is the filesystem; nil selects the real one (OSFS).
	FS FS
	// NoSync skips every fsync. Only for tests and benchmarks that
	// measure the non-durability cost; the daemon never sets it.
	NoSync bool
	// GroupCommit routes appends through the batched-fsync pipeline
	// (group.go): concurrent callers share one journal fsync and are
	// acknowledged only after it. Durability per acked record is
	// identical to per-record mode. Ignored when NoSync is set (there
	// is no fsync to amortize).
	GroupCommit bool
	// GroupWindow is how long a group-commit leader lingers for more
	// callers before fsyncing. 0 (the default) commits immediately —
	// batching still happens, absorbed by fsync latency under load.
	GroupWindow time.Duration
	// GroupMax caps records per commit window; a full window fsyncs
	// without waiting out GroupWindow. 0 selects 64.
	GroupMax int
}

// RecoveryStats reports what recovery found and repaired.
type RecoveryStats struct {
	// SnapshotSeq is the generation of the snapshot loaded (0 = none).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Journals is how many journal files were replayed.
	Journals int `json:"journals"`
	// Records is how many feedback records were replayed.
	Records int `json:"records"`
	// TornBytes is how many trailing bytes were cut as torn or corrupt.
	TornBytes int64 `json:"torn_bytes"`
	// DroppedJournals counts journal files discarded because an earlier
	// journal was corrupt mid-stream (never from a clean shutdown).
	DroppedJournals int `json:"dropped_journals"`
	// Corrupt is true when the truncation point was not the tail of the
	// last journal — i.e. real corruption, not a torn final write.
	Corrupt bool `json:"corrupt"`
}

// Log is a feedback write-ahead log bound to one directory. All methods
// are safe for concurrent use; appends from HTTP handler goroutines and
// the periodic rotation in cmd/schedd share the one mutex.
//
// Lock order: Rotate calls the snapshot callback (typically the
// estimator's SaveState, which takes the estimator's shard locks) under
// l.mu — so l.mu precedes the estimator locks and nothing acquires them
// in the other order. The server holds its rotation read-lock (see
// server.Quiesce) around RecordOutcome, which precedes both; l.mu is
// never held while acquiring anything but the estimator locks.
type Log struct {
	// mu serialises appends, rotation and recovery; it sits between the
	// server's rotation lock and the estimator locks in the canonical
	// hierarchy (DESIGN.md §7).
	//overprov:lock rank=30
	mu     sync.Mutex
	fs     FS
	dir    string
	noSync bool

	seq     uint64 // current journal generation
	journal File   // open for append; nil after Close
	buf     []byte // scratch frame buffer, guarded by mu

	// size is the journal's known-good length: header plus every frame
	// whose write succeeded. A failed append truncates back to it so a
	// partial frame can never sit between acked records (recovery cuts
	// at the first invalid frame — garbage mid-file would take every
	// later acked record with it). Guarded by mu.
	size int64
	// dirty is set while the journal holds bytes no fsync has covered
	// yet; Close syncs only when it is set (the rotation double-sync
	// fix). Guarded by mu.
	dirty bool
	// torn is set when a failed append could not be truncated away:
	// the tail is garbage, so further appends must fail rather than
	// strand acked frames behind it. A successful Rotate starts a
	// clean generation and clears it. Guarded by mu.
	torn bool

	snapSeq uint64
	// snapSize is the byte length of snapshot snapSeq, learned where
	// the file is (Rotate counts what it writes, Open stats what it
	// finds) so shipping can bound a positional read without touching
	// the file. Guarded by mu, read beside snapSeq.
	snapSize  int64
	pending   []Record // validated records awaiting Recover
	stats     RecoveryStats
	recovered bool

	// state mirrors recovered/closed for the group append path's
	// lock-free pre-check (group.go).
	state atomic.Int32

	// Group-commit pipeline (group.go). gcMu guards the current commit
	// window; appenders take it without l.mu, the leader takes it under
	// l.mu — both ascend the canonical hierarchy.
	//overprov:lock rank=35
	gcMu        sync.Mutex
	cur         *commitGroup
	group       bool
	groupWindow time.Duration
	groupMax    int

	// Durability counters (SyncStats).
	nRecords atomic.Uint64
	nSyncs   atomic.Uint64

	// Shipping counters (ShipStats).
	shipPolls atomic.Uint64
	shipRead  atomic.Uint64
	shipSent  atomic.Uint64
}

func journalName(seq uint64) string  { return fmt.Sprintf("journal-%08d.wal", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%08d.json", seq) }

// parseSeq extracts the generation from a journal/snapshot file name.
// The middle segment must be exactly a positive decimal number —
// anything else (trailing garbage, a sign, an overflow) means the file
// is not a WAL generation and must be left alone, never "repaired"
// against a reconstructed canonical name it does not match.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// dirScan is everything one read pass learns about a WAL directory,
// including the repairs Open must apply. Dump uses the same scan
// without applying anything.
type dirScan struct {
	snapSeq    uint64
	snapSize   int64    // byte length of snapshot snapSeq
	journals   []uint64 // kept generations, ascending (seq ≥ snapSeq)
	records    []Record // replayable stream across kept journals
	truncSeq   uint64   // journal to truncate (0 = none)
	truncTo    int64    // file size to truncate it to (includes header)
	tailSize   int64    // valid byte length of the tail journal after repair
	tornHeader bool     // truncSeq's header itself is torn: reset file
	dropped    []uint64 // journals after a mid-stream corruption
	tornBytes  int64
	corrupt    bool
	stale      []string // file names superseded by the newest snapshot
	tmps       []string // leftover temp files from interrupted snapshots
}

// scanDir reads the directory and validates every kept journal.
func scanDir(fs FS, dir string) (*dirScan, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sc := &dirScan{}
	var journals, snaps []uint64
	var newestSnap os.DirEntry
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			sc.tmps = append(sc.tmps, name)
		default:
			if seq, ok := parseSeq(name, "journal-", ".wal"); ok {
				journals = append(journals, seq)
			} else if seq, ok := parseSeq(name, "snapshot-", ".json"); ok {
				snaps = append(snaps, seq)
				if seq > sc.snapSeq {
					sc.snapSeq, newestSnap = seq, e
				}
			}
		}
	}
	sort.Slice(journals, func(i, j int) bool { return journals[i] < journals[j] })
	if newestSnap != nil {
		info, err := newestSnap.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		sc.snapSize = info.Size()
	}
	for _, s := range snaps {
		if s < sc.snapSeq {
			sc.stale = append(sc.stale, snapshotName(s))
		}
	}
	for _, j := range journals {
		if j < sc.snapSeq {
			sc.stale = append(sc.stale, journalName(j))
			continue
		}
		sc.journals = append(sc.journals, j)
	}

	// Validate kept journals oldest-first. The replayable stream ends at
	// the first invalid frame; journals after that point are dropped
	// (that can only happen on real corruption, since rotation creates
	// journal N+1 only after journal N is fully synced).
	for i, seq := range sc.journals {
		data, err := readFile(fs, filepath.Join(dir, journalName(seq)))
		if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", journalName(seq), err)
		}
		last := i == len(sc.journals)-1
		frames, ok, err := checkHeader(data)
		if err != nil {
			return nil, err
		}
		if !ok { // torn header: no record ever made it to this file
			sc.truncSeq, sc.truncTo, sc.tornHeader = seq, 0, true
			sc.tailSize = int64(len(journalHeader)) // recreated with a fresh header
			sc.tornBytes += int64(len(data))
			if !last {
				sc.corrupt = true
				sc.dropped = sc.journals[i+1:]
				sc.journals = sc.journals[:i+1]
			}
			break
		}
		recs, valid := scanRecords(frames)
		sc.records = append(sc.records, recs...)
		sc.tailSize = int64(len(journalHeader) + valid)
		if valid < len(frames) {
			sc.truncSeq = seq
			sc.truncTo = int64(len(journalHeader) + valid)
			sc.tornBytes += int64(len(frames) - valid)
			if !last {
				sc.corrupt = true
				sc.dropped = sc.journals[i+1:]
				sc.journals = sc.journals[:i+1]
			}
			break
		}
	}
	return sc, nil
}

// readFile reads a whole file through the FS abstraction.
func readFile(fs FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// Open binds a Log to dir, creating it if needed, and repairs crash
// damage: leftover temp files are removed, the first torn or corrupt
// record and everything after it is truncated away, and journal files
// superseded by the newest snapshot are deleted. Open does not touch
// the estimator — call Recover next to load the snapshot and replay the
// journal suffix, then the Log is ready for RecordOutcome/Rotate.
func Open(dir string, opts Options) (*Log, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sc, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fsys, dir: dir, noSync: opts.NoSync, snapSeq: sc.snapSeq, snapSize: sc.snapSize}
	l.group = opts.GroupCommit && !opts.NoSync
	l.groupWindow = opts.GroupWindow
	l.groupMax = opts.GroupMax
	if l.groupMax <= 0 {
		l.groupMax = 64
	}
	l.pending = sc.records
	l.stats = RecoveryStats{
		SnapshotSeq:     sc.snapSeq,
		Journals:        len(sc.journals),
		TornBytes:       sc.tornBytes,
		DroppedJournals: len(sc.dropped),
		Corrupt:         sc.corrupt,
	}

	// Repairs: temp files, stale generations, dropped journals, torn tail.
	for _, name := range sc.tmps {
		_ = l.fs.Remove(filepath.Join(dir, name))
	}
	for _, name := range sc.stale {
		_ = l.fs.Remove(filepath.Join(dir, name))
	}
	for _, seq := range sc.dropped {
		_ = l.fs.Remove(filepath.Join(dir, journalName(seq)))
	}
	if sc.truncSeq != 0 && !sc.tornHeader {
		if err := l.truncateJournal(sc.truncSeq, sc.truncTo); err != nil {
			return nil, err
		}
	}

	// Open (or create) the current journal for appending.
	switch {
	case len(sc.journals) == 0:
		l.seq = sc.snapSeq
		if l.seq == 0 {
			l.seq = 1
		}
		if l.journal, err = l.createJournal(l.seq); err != nil {
			return nil, err
		}
		l.size = int64(len(journalHeader))
	default:
		l.seq = sc.journals[len(sc.journals)-1]
		if sc.truncSeq == l.seq && sc.tornHeader {
			// The tail journal's header itself is torn: recreate it.
			if l.journal, err = l.createJournal(l.seq); err != nil {
				return nil, err
			}
		} else {
			f, err := l.fs.OpenFile(filepath.Join(dir, journalName(l.seq)),
				os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			l.journal = f
		}
		l.size = sc.tailSize
	}
	return l, nil
}

// truncateJournal cuts a journal to size and syncs the cut.
func (l *Log) truncateJournal(seq uint64, size int64) error {
	path := filepath.Join(l.dir, journalName(seq))
	f, err := l.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncating %s: %w", journalName(seq), err)
	}
	err = f.Truncate(size)
	if err == nil && !l.noSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: truncating %s: %w", journalName(seq), err)
	}
	return nil
}

// createJournal creates an empty journal file with a durable header.
// The file is opened O_APPEND so that after a failed append is
// truncated away the next write lands at the new end of file, never
// past a hole at the old offset.
func (l *Log) createJournal(seq uint64) (File, error) {
	path := filepath.Join(l.dir, journalName(seq))
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err = f.Write(journalHeader); err == nil && !l.noSync {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		_ = l.fs.Remove(path)
		return nil, fmt.Errorf("wal: creating %s: %w", journalName(seq), err)
	}
	if !l.noSync {
		if err := l.fs.SyncDir(l.dir); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("wal: creating %s: %w", journalName(seq), err)
		}
	}
	return f, nil
}

// Recover finishes crash recovery: load is called with the newest
// snapshot (skipped when none exists), then apply is called for every
// replayable journal record in append order. It must be called exactly
// once, before the first RecordOutcome or Rotate — the Log refuses to
// append over an unreplayed suffix, because feedback applied out of
// order is feedback corrupted.
//
//overprov:callsunder mu
func (l *Log) Recover(load func(io.Reader) error, apply func(Record) error) (RecoveryStats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.recovered {
		return l.stats, fmt.Errorf("wal: Recover called twice")
	}
	if l.snapSeq > 0 && load != nil {
		path := filepath.Join(l.dir, snapshotName(l.snapSeq))
		f, err := l.fs.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return l.stats, fmt.Errorf("wal: %w", err)
		}
		err = load(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return l.stats, fmt.Errorf("wal: loading snapshot %d: %w", l.snapSeq, err)
		}
	}
	for i, r := range l.pending {
		if apply != nil {
			if err := apply(r); err != nil {
				return l.stats, fmt.Errorf("wal: replaying record %d: %w", i, err)
			}
		}
	}
	l.stats.Records = len(l.pending)
	l.pending = nil
	l.recovered = true
	l.state.Store(stateOpen)
	return l.stats, nil
}

// RecordOutcome appends one acked feedback event durably: the framed
// record is written and fsynced before the call returns, so a crash an
// instant later replays it. It is RecordOutcomes for a group of one,
// which is how the server journals a single completion before training
// the estimator — write-ahead, in the literal sense. With GroupCommit
// the fsync is shared with concurrent callers (group.go); the
// return-after-durable contract is identical.
func (l *Log) RecordOutcome(o estimate.Outcome) error {
	if l.group {
		one := [1]estimate.Outcome{o}
		return l.groupAppend(one[:])
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendFrame(l.buf[:0], FromOutcome(o))
	return l.commitLocked(l.buf, 1)
}

// RecordOutcomes appends a batch of acked feedback events as one append
// group: each record is individually framed (replay is per-record), and
// the whole batch rides one commit ticket. In group-commit mode the
// batch joins the current window; in per-record mode every record pays
// its own fsync — the strict PR 5 baseline the benchmarks compare
// against. The error, if any, covers the whole batch: none of its
// records is acknowledged.
func (l *Log) RecordOutcomes(outcomes []estimate.Outcome) error {
	if len(outcomes) == 0 {
		return nil
	}
	if l.group {
		return l.groupAppend(outcomes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range outcomes {
		l.buf = appendFrame(l.buf[:0], FromOutcome(outcomes[i]))
		if err := l.commitLocked(l.buf, 1); err != nil {
			return err
		}
	}
	return nil
}

// commitLocked writes buf (n framed records) to the journal and fsyncs
// it, maintaining the known-good size and the durability counters. A
// failed write or sync truncates the file back to the known-good size
// so no partial frame can strand later acked records behind it; if even
// that repair fails the log goes torn and refuses appends until a
// rotation starts a clean generation. Callers hold l.mu.
func (l *Log) commitLocked(buf []byte, n int) error {
	if !l.recovered {
		return fmt.Errorf("wal: RecordOutcome before Recover")
	}
	if l.journal == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if l.torn {
		return fmt.Errorf("wal: journal tail is torn; appends resume after rotation")
	}
	if _, err := l.journal.Write(buf); err != nil {
		l.repairTailLocked()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.dirty = true
	if !l.noSync {
		if err := l.journal.Sync(); err != nil {
			// The frames are on the file but their durability is
			// unknown and the caller will not ack them; cut them off so
			// the known-good prefix stays exact.
			l.repairTailLocked()
			return fmt.Errorf("wal: append sync: %w", err)
		}
		l.dirty = false
		l.nSyncs.Add(1)
	}
	l.size += int64(len(buf))
	l.nRecords.Add(uint64(n))
	return nil
}

// repairTailLocked truncates the journal back to its known-good size
// after a failed append, syncing the cut. On any repair failure the log
// is marked torn (the tail may hold garbage that would eat later
// records at recovery) and appends fail until Rotate succeeds.
func (l *Log) repairTailLocked() {
	if err := l.journal.Truncate(l.size); err != nil {
		l.torn = true
		return
	}
	if !l.noSync {
		if err := l.journal.Sync(); err != nil {
			l.torn = true
			return
		}
	}
	l.dirty = false
}

// Rotate snapshots the estimator and starts a fresh journal generation:
//
//  1. journal N+1 is created and synced; new appends go there;
//  2. save writes the estimator state to snapshot-N+1.json.tmp,
//     fsynced, then atomically renamed over and the directory fsynced;
//  3. generation N's files are deleted.
//
// Step (3) is only sound when the state save writes already reflects
// every record in journal N: the caller must ensure no feedback event
// is between its RecordOutcome and its estimator training when Rotate
// runs — l.mu alone cannot, because training happens outside this
// package. cmd/schedd guarantees it by routing rotation through
// server.Quiesce, whose write lock excludes that window.
//
// Every failure mode leaves a recoverable directory: aborting before
// (2) completes leaves snapshot N plus journals N and N+1, which replay
// in order; a disk-full snapshot aborts cleanly and the old generation
// keeps growing until a later Rotate succeeds. Appends block for the
// duration (the snapshot is a few KB per thousand similarity groups).
//
//overprov:callsunder mu
func (l *Log) Rotate(save func(w io.Writer) error) error {
	// Flush the group-commit pipeline through its ticket mechanism
	// first (no-op without GroupCommit, and under server.Quiesce the
	// pipeline is already empty): every acked record is then fsynced,
	// so rotation closes the old journal without re-syncing it.
	l.drainGroup()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.recovered {
		return fmt.Errorf("wal: Rotate before Recover")
	}
	if l.journal == nil {
		return fmt.Errorf("wal: log is closed")
	}
	newSeq := l.seq + 1
	nj, err := l.createJournal(newSeq)
	if err != nil {
		return err // old generation untouched; appends continue
	}
	old := l.journal
	l.journal, l.seq = nj, newSeq
	l.size = int64(len(journalHeader))
	l.dirty = false
	l.torn = false  // fresh generation: a torn old tail is now harmless
	_ = old.Close() // every acked record in it is already synced

	// Install the snapshot atomically: tmp → fsync → rename → dir fsync.
	final := filepath.Join(l.dir, snapshotName(newSeq))
	tmp := final + ".tmp"
	f, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	cw := countWriter{w: f}
	err = save(&cw)
	if err == nil && !l.noSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fs.Rename(tmp, final)
	}
	if err == nil && !l.noSync {
		err = l.fs.SyncDir(l.dir)
	}
	if err != nil {
		_ = l.fs.Remove(tmp)
		return fmt.Errorf("wal: snapshot %d: %w", newSeq, err)
	}
	oldSnap := l.snapSeq
	l.snapSeq, l.snapSize = newSeq, cw.n

	// The new snapshot covers every prior generation; delete them.
	// Best-effort: leftovers are cleaned by the next Open or Rotate.
	// Journals older than oldSnap were already removed by earlier
	// rotations (or by Open), so the scan starts there.
	start := oldSnap
	if start == 0 {
		start = 1
	}
	for seq := start; seq < newSeq; seq++ {
		_ = l.fs.Remove(filepath.Join(l.dir, journalName(seq)))
	}
	if oldSnap > 0 {
		_ = l.fs.Remove(filepath.Join(l.dir, snapshotName(oldSnap)))
	}
	return nil
}

// countWriter counts the bytes a snapshot save writes, so Rotate knows
// the installed file's length without reading it back.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Close drains the group-commit pipeline and closes the current
// journal, syncing it only when unsynced bytes remain (every
// successful commit already fsyncs, so the old unconditional sync here
// was a second fsync per shutdown for nothing). The Log is unusable
// afterwards.
func (l *Log) Close() error {
	l.state.Store(stateClosed) // new group appends are refused
	l.drainGroup()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.journal == nil {
		return nil
	}
	var err error
	if l.dirty && !l.noSync {
		err = l.journal.Sync()
	}
	if cerr := l.journal.Close(); err == nil {
		err = cerr
	}
	l.journal = nil
	return err
}

// Seq returns the current journal generation (for tests and logs).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dump reads a WAL directory without repairing or opening it: the
// newest snapshot's raw bytes (nil when none) and every replayable
// record, exactly the stream Recover would apply. Tests use it to check
// the recovered-state-equals-snapshot-plus-replay invariant from the
// outside.
func Dump(dir string, fsys FS) (snapshot []byte, recs []Record, err error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	sc, err := scanDir(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	if sc.snapSeq > 0 {
		snapshot, err = readFile(fsys, filepath.Join(dir, snapshotName(sc.snapSeq)))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	return snapshot, sc.records, nil
}
