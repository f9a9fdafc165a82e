// Package faultfs is the filesystem seam under the durability layer:
// a narrow interface covering exactly the operations internal/journal
// performs, a passthrough OS implementation (the production default),
// an in-memory implementation for fast deterministic tests, and a
// fault injector that can fail the Nth matching operation with a chosen
// error, produce short (torn) writes, and simulate a whole-machine
// crash after which every operation fails.
//
// The seam exists so crash-safety claims can be tested systematically
// instead of anecdotally: a torture test can run a workload once to
// count the filesystem operations it performs, then re-run it with a
// crash injected at every operation index in turn and assert that
// recovery always restores a consistent prefix of the workload.
package faultfs

import "io"

// FS is the set of filesystem operations the journal uses. All paths
// are plain OS paths. Implementations must be safe for concurrent use.
type FS interface {
	// MkdirAll creates the directory (and parents) if missing.
	MkdirAll(dir string) error
	// Remove deletes the named file; removing a missing file is an
	// error (fs.ErrNotExist).
	Remove(name string) error
	// ReadFile returns the file's contents (fs.ErrNotExist if absent).
	ReadFile(name string) ([]byte, error)
	// Open opens the named file for reading from its start
	// (fs.ErrNotExist if absent): the streaming form of ReadFile, for a
	// reader that keeps only a buffer of the file at a time. It shares
	// ReadFile's fault class; the reads themselves are not counted.
	Open(name string) (io.ReadCloser, error)
	// Size returns the file's length in bytes (fs.ErrNotExist if
	// absent).
	Size(name string) (int64, error)
	// Truncate cuts the named file to the given length.
	Truncate(name string, size int64) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs the directory so a rename within it is durable.
	SyncDir(dir string) error
	// OpenFile opens the named file with os.OpenFile semantics for
	// flag (O_CREATE, O_WRONLY, O_APPEND, O_TRUNC).
	OpenFile(name string, flag int) (File, error)
}

// File is an open file handle.
type File interface {
	// Write appends or writes at the current position, like
	// (*os.File).Write.
	Write(p []byte) (int, error)
	// Sync flushes the file to stable storage.
	Sync() error
	// Truncate cuts the file to the given length. Writes on a handle
	// opened with O_APPEND continue at the new end.
	Truncate(size int64) error
	// Close releases the handle.
	Close() error
}

// Op names a filesystem operation class for fault matching.
type Op string

// The operation classes, one per FS/File method.
const (
	OpMkdirAll Op = "mkdirall"
	OpRemove   Op = "remove"
	OpReadFile Op = "readfile" // both FS.ReadFile and FS.Open
	OpSize     Op = "size"
	OpTruncate Op = "truncate" // both FS.Truncate and File.Truncate
	OpRename   Op = "rename"
	OpSyncDir  Op = "syncdir"
	OpOpen     Op = "open"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
)
