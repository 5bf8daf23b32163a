package wal

import (
	"io"
	"os"
	"path/filepath"

	"overprov/internal/wire"
)

// WAL shipping, leader side. A follower replicates this Log's
// directory byte-for-byte by polling ShipState with wire.WALFetch
// requests; see internal/wire/repl.go for the protocol and Mirror
// (mirror.go) for the follower side.
//
// The unit of truth is the generation-numbered file layout the
// rotation protocol already maintains: the shipper serves raw bytes of
// journal-%08d.wal and snapshot-%08d.json files, never interpreting
// records, so every invariant recovery depends on (header magic, CRC
// framing, torn-tail truncation) transfers for free. The served
// prefix of the current journal is capped at the known-good size — a
// follower can never observe bytes that were not acked durable, which
// is what makes a promoted follower's state an acked prefix of the
// leader's.

// ShipState answers one follower poll. It takes l.mu only long enough
// to read the generation positions; file reads happen unlocked, which
// is safe because a journal's committed prefix and an installed
// snapshot are immutable (rotation deletes files, it never rewrites
// them — a read racing a deletion is answered with a reset and the
// follower re-syncs).
//
// A poll costs what it ships: the live journal and the snapshot are
// served by one positional read of exactly the chunk's bytes, bounded
// by lengths the Log already tracks (l.size, l.snapSize), and a
// caught-up poll opens nothing. No read handle is kept between polls —
// a cached handle would be state that rotation has to invalidate under
// a lock, to save one open per 256 KiB shipped.
func (l *Log) ShipState(req wire.WALFetch) (wire.WALState, error) {
	l.mu.Lock()
	seq, snapSeq, size, snapSize := l.seq, l.snapSeq, l.size, l.snapSize
	l.mu.Unlock()
	l.shipPolls.Add(1)

	reset := resetReply(req, snapSeq, seq)
	switch req.Kind {
	case wire.WALKindSnapshot:
		if snapSeq == 0 || req.Gen != snapSeq {
			return reset, nil
		}
		return l.shipRange(req, reset, snapshotName(snapSeq), uint64(snapSize)), nil

	case wire.WALKindJournal:
		if req.Gen == 0 || req.Gen > seq || req.Gen < resumeGen(snapSeq) {
			return reset, nil
		}
		if req.Gen == seq {
			// The live journal: serve only the acked-durable prefix.
			// The file may be longer (bytes a failed append could not
			// truncate away); those must never reach a follower.
			return l.shipRange(req, reset, journalName(seq), uint64(size)), nil
		}
		// A completed generation kept by an earlier failed rotation.
		// Its clean length is not tracked anymore, so re-derive it the
		// way recovery would: header + every frame that checks out.
		// That needs the whole file, on every chunk — deliberately:
		// this arm runs only between a failed rotation and the next
		// successful one, and remembering the derived length would be
		// per-generation state to invalidate for a path that is cold.
		data, err := readFile(l.fs, filepath.Join(l.dir, journalName(req.Gen)))
		l.shipRead.Add(uint64(len(data)))
		if err != nil {
			return reset, nil
		}
		frames, ok, err := checkHeader(data)
		if err != nil || !ok {
			return reset, nil
		}
		_, validFrames := scanRecords(frames)
		valid := uint64(len(journalHeader) + validFrames)
		if req.Off > valid {
			return reset, nil
		}
		return l.chunkReply(req, reset, valid, wire.WALFlagGenDone, data[req.Off:chunkEnd(req.Off, valid)]), nil
	}
	return reset, nil
}

// ShipStats reports the shipping path's counters since Open: follower
// polls answered, file bytes read to answer them, and chunk bytes sent.
// readBytes/sentBytes is the read amplification — 1.0 on the live
// journal and the snapshot, above it only on the completed-generation
// arm, which re-reads the kept journal for each chunk of it.
func (l *Log) ShipStats() (polls, readBytes, sentBytes uint64) {
	return l.shipPolls.Load(), l.shipRead.Load(), l.shipSent.Load()
}

// resumeGen is the oldest journal generation guaranteed on disk: the
// snapshot generation when one exists (rotation installs snapshot N
// and journal N together and deletes only generations below N), else
// generation 1 (nothing has ever been deleted).
func resumeGen(snapSeq uint64) uint64 {
	if snapSeq > 0 {
		return snapSeq
	}
	return 1
}

// resetReply tells the follower to re-sync from the leader's current
// positions: fetch snapshot snapSeq when one exists, then follow the
// journals from resumeGen.
func resetReply(req wire.WALFetch, snapSeq, seq uint64) wire.WALState {
	return wire.WALState{
		Kind:    req.Kind,
		Flags:   wire.WALFlagReset,
		Gen:     resumeGen(snapSeq),
		SnapGen: snapSeq,
		Seq:     seq,
	}
}

// chunkEnd bounds the chunk that starts at off within valid bytes.
func chunkEnd(off, valid uint64) uint64 {
	if end := off + wire.MaxWALChunk; end < valid {
		return end
	}
	return valid
}

// chunkReply wraps one chunk of a file with valid shippable bytes; the
// leader positions are the ones reset already carries.
func (l *Log) chunkReply(req wire.WALFetch, reset wire.WALState, valid uint64, flags uint8, data []byte) wire.WALState {
	l.shipSent.Add(uint64(len(data)))
	return wire.WALState{
		Kind:    req.Kind,
		Flags:   flags,
		Gen:     req.Gen,
		Off:     req.Off,
		Size:    valid,
		SnapGen: reset.SnapGen,
		Seq:     reset.Seq,
		Data:    data,
	}
}

// shipRange serves the chunk at req.Off of name's first valid bytes
// with one positional read of exactly that chunk. An offset past the
// valid length draws a reset — the follower is ahead of what this
// leader acked (a restarted leader that lost a tail) and must re-sync
// from scratch. So does a file that cannot be opened or comes back
// short: the position read raced a rotation that deleted it. Never an
// error, never a partial chunk.
func (l *Log) shipRange(req wire.WALFetch, reset wire.WALState, name string, valid uint64) wire.WALState {
	if req.Off > valid {
		return reset
	}
	var data []byte
	if n := chunkEnd(req.Off, valid) - req.Off; n > 0 {
		f, err := l.fs.OpenFile(filepath.Join(l.dir, name), os.O_RDONLY, 0)
		if err != nil {
			return reset
		}
		data = make([]byte, n)
		got, err := f.ReadAt(data, int64(req.Off))
		_ = f.Close() // read-only handle: nothing to lose
		l.shipRead.Add(uint64(got))
		// io.ReaderAt: got < len(data) always carries an error; a full
		// read may report io.EOF at the file's end and is still whole.
		if uint64(got) < n || (err != nil && err != io.EOF) {
			return reset
		}
	}
	return l.chunkReply(req, reset, valid, 0, data)
}

// removeWALFiles deletes every generation-numbered WAL file and every
// leftover temp file in dir, except keep (the snapshot assembly in
// flight). It is the mirror's reset broom; harmless extra files are
// left alone.
func removeWALFiles(fsys FS, dir, keep string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name == keep {
			continue
		}
		_, isJournal := parseSeq(name, "journal-", ".wal")
		_, isSnap := parseSeq(name, "snapshot-", ".json")
		if isJournal || isSnap || filepath.Ext(name) == ".tmp" {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}
