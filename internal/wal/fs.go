package wal

import (
	"io"
	"os"
)

// FS is the slice of filesystem the WAL needs. The daemon runs on OSFS;
// the fault-injection harness (internal/faultinject) wraps any FS to
// inject errors, partial writes and SIGKILL-style halts at exact
// operation counts, which is how the crash-matrix tests exercise every
// failure window of the append/rotate/recover protocol.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename: atomic within a directory on POSIX.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll is os.MkdirAll.
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making renames and creates within it
	// durable. A rename without a directory sync can still vanish in a
	// crash — the bug the schedd state saver shipped with.
	SyncDir(name string) error
}

// File is the open-file surface the WAL uses.
type File interface {
	io.Reader
	// ReadAt is (*os.File).ReadAt: WAL shipping reads one chunk at a
	// follower's offset without touching the rest of the file.
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync is (*os.File).Sync: flush to stable storage.
	Sync() error
	// Truncate is (*os.File).Truncate: cut a torn tail.
	Truncate(size int64) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenFile implements FS.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// SyncDir implements FS by opening the directory and fsyncing it.
func (OSFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
