package faultinject

import (
	"os"

	"overprov/internal/wal"
)

// Filesystem operation names used by FS. A schedule can target one
// ("fs.sync") or, with an empty Op, all of them (crash matrix).
const (
	OpOpen     = "fs.open"
	OpRename   = "fs.rename"
	OpRemove   = "fs.remove"
	OpReadDir  = "fs.readdir"
	OpMkdirAll = "fs.mkdir"
	OpSyncDir  = "fs.syncdir"
	OpWrite    = "fs.write"
	OpRead     = "fs.read"
	OpSync     = "fs.sync"
	OpClose    = "fs.close"
	OpTruncate = "fs.truncate"
)

// FS wraps a wal.FS with fault injection. After a halting fault fires,
// no operation reaches the inner filesystem — the disk is frozen in
// exactly the state it had at the kill point, which is what makes the
// SIGKILL crash-matrix tests honest.
type FS struct {
	inner wal.FS
	sched *Schedule
}

// NewFS wraps inner (nil selects the real filesystem) with sched.
func NewFS(inner wal.FS, sched *Schedule) *FS {
	if inner == nil {
		inner = wal.OSFS{}
	}
	return &FS{inner: inner, sched: sched}
}

// OpenFile implements wal.FS.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if ft := f.sched.Check(OpOpen, name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return nil, ft.Err
		}
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: file, name: name, sched: f.sched}, nil
}

// Rename implements wal.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if ft := f.sched.Check(OpRename, newpath); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return ft.Err
		}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements wal.FS.
func (f *FS) Remove(name string) error {
	if ft := f.sched.Check(OpRemove, name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return ft.Err
		}
	}
	return f.inner.Remove(name)
}

// ReadDir implements wal.FS.
func (f *FS) ReadDir(name string) ([]os.DirEntry, error) {
	if ft := f.sched.Check(OpReadDir, name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return nil, ft.Err
		}
	}
	return f.inner.ReadDir(name)
}

// MkdirAll implements wal.FS.
func (f *FS) MkdirAll(name string, perm os.FileMode) error {
	if ft := f.sched.Check(OpMkdirAll, name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return ft.Err
		}
	}
	return f.inner.MkdirAll(name, perm)
}

// SyncDir implements wal.FS.
func (f *FS) SyncDir(name string) error {
	if ft := f.sched.Check(OpSyncDir, name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return ft.Err
		}
	}
	return f.inner.SyncDir(name)
}

// faultFile wraps one open file.
type faultFile struct {
	inner wal.File
	name  string
	sched *Schedule
}

// Write implements wal.File. A faulted write honours Fault.Partial:
// that many payload bytes reach the inner file before the error —
// the torn-write staging used by the crash tests.
func (f *faultFile) Write(p []byte) (int, error) {
	if ft := f.sched.Check(OpWrite, f.name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			n := 0
			if ft.Partial > 0 {
				if ft.Partial < len(p) {
					p = p[:ft.Partial]
				}
				n, _ = f.inner.Write(p)
			}
			return n, ft.Err
		}
	}
	return f.inner.Write(p)
}

// Read implements wal.File.
func (f *faultFile) Read(p []byte) (int, error) {
	if ft := f.sched.Check(OpRead, f.name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return 0, ft.Err
		}
	}
	return f.inner.Read(p)
}

// ReadAt implements wal.File, scheduled as a read like Read.
func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if ft := f.sched.Check(OpRead, f.name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return 0, ft.Err
		}
	}
	return f.inner.ReadAt(p, off)
}

// Sync implements wal.File.
func (f *faultFile) Sync() error {
	if ft := f.sched.Check(OpSync, f.name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return ft.Err
		}
	}
	return f.inner.Sync()
}

// Truncate implements wal.File.
func (f *faultFile) Truncate(size int64) error {
	if ft := f.sched.Check(OpTruncate, f.name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return ft.Err
		}
	}
	return f.inner.Truncate(size)
}

// Close implements wal.File. Close always reaches the inner file —
// leaking descriptors would make the harness flaky — but the injected
// error is still reported.
func (f *faultFile) Close() error {
	err := f.inner.Close()
	if ft := f.sched.Check(OpClose, f.name); ft != nil {
		ft.Sleep()
		if ft.Err != nil {
			return ft.Err
		}
	}
	return err
}
