package faultfs

import (
	"errors"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// ErrCrashed is the error every operation returns after a simulated
// crash: the "machine" is off, nothing works until the store is
// reopened on a fresh FS over the same state.
var ErrCrashed = errors.New("faultfs: simulated crash")

// ErrInjected is the default error of a Fault with no Err set.
var ErrInjected = errors.New("faultfs: injected fault")

// Common injectable errnos, re-exported so tests do not need to import
// syscall.
var (
	// ErrNoSpace is ENOSPC, the disk-full error.
	ErrNoSpace error = syscall.ENOSPC
	// ErrIO is EIO, the generic device error.
	ErrIO error = syscall.EIO
)

// Fault describes one injected failure rule.
type Fault struct {
	// Op restricts the rule to one operation class ("" matches any).
	Op Op
	// Path, when non-empty, restricts the rule to operations whose
	// file's base name contains it (e.g. "journal").
	Path string
	// After skips the first After matching operations before firing.
	After int
	// Count bounds how many times the rule fires; 0 means every match
	// after After.
	Count int
	// Err is the returned error (ErrInjected if nil).
	Err error
	// Short, for write operations, is the number of bytes actually
	// written before the error — a torn write. 0 writes nothing.
	Short int
	// Crash, when set, simulates a machine crash once the rule fires:
	// the faulted operation fails and every later operation returns
	// ErrCrashed.
	Crash bool

	seen  int
	fired int
}

// Inject wraps an FS and fails operations according to registered
// Fault rules and the CrashAt schedule. With no rules it is a pure
// passthrough that counts operations, which is how a torture test
// measures the op-index space to crash over. It is safe for
// concurrent use.
type Inject struct {
	inner FS

	mu      sync.Mutex
	ops     int
	crashAt int
	crashed bool
	faults  []*Fault
}

// NewInject wraps inner with an initially fault-free injector.
func NewInject(inner FS) *Inject {
	return &Inject{inner: inner}
}

// AddFault registers a failure rule.
func (i *Inject) AddFault(f Fault) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.faults = append(i.faults, &f)
}

// Lift removes every failure rule and clears the crashed state, as if
// the faulty device had been replaced. The operation counter keeps
// running.
func (i *Inject) Lift() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.faults = nil
	i.crashed = false
	i.crashAt = 0
}

// CrashAt schedules a simulated crash at the nth operation (1-based)
// counted from now: that operation fails — a write tears, persisting
// only a deterministic prefix of its bytes — and every later operation
// returns ErrCrashed. n <= 0 cancels the schedule.
func (i *Inject) CrashAt(n int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if n <= 0 {
		i.crashAt = 0
		return
	}
	i.crashAt = i.ops + n
}

// Crashed reports whether the simulated crash has happened.
func (i *Inject) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Ops returns how many operations have been attempted (including
// failed and post-crash ones).
func (i *Inject) Ops() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// check advances the op counter and decides the fate of one operation.
// For writes, writeLen is the intended length; the returned short is
// how many bytes to write before failing (only meaningful when err is
// non-nil).
func (i *Inject) check(op Op, path string, writeLen int) (short int, err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ops++
	if i.crashed {
		return 0, ErrCrashed
	}
	if i.crashAt > 0 && i.ops >= i.crashAt {
		i.crashed = true
		// Tear the crashing write deterministically: the op index picks
		// how much of the buffer "reached the disk", anywhere from none
		// of it to all of it (all-of-it models a crash after the write
		// but before the fsync acknowledged it).
		return (i.ops * 7919) % (writeLen + 1), ErrCrashed
	}
	for _, f := range i.faults {
		if f.Op != "" && f.Op != op {
			continue
		}
		if f.Path != "" && !strings.Contains(filepath.Base(path), f.Path) {
			continue
		}
		f.seen++
		if f.seen <= f.After {
			continue
		}
		if f.Count > 0 && f.fired >= f.Count {
			continue
		}
		f.fired++
		if f.Crash {
			i.crashed = true
		}
		err := f.Err
		if err == nil {
			err = ErrInjected
		}
		return f.Short, err
	}
	return 0, nil
}

// MkdirAll implements FS.
func (i *Inject) MkdirAll(dir string) error {
	if _, err := i.check(OpMkdirAll, dir, 0); err != nil {
		return err
	}
	return i.inner.MkdirAll(dir)
}

// Remove implements FS.
func (i *Inject) Remove(name string) error {
	if _, err := i.check(OpRemove, name, 0); err != nil {
		return err
	}
	return i.inner.Remove(name)
}

// ReadFile implements FS.
func (i *Inject) ReadFile(name string) ([]byte, error) {
	if _, err := i.check(OpReadFile, name, 0); err != nil {
		return nil, err
	}
	return i.inner.ReadFile(name)
}

// Open implements FS under the readfile fault class: the open is one
// operation, and the reads from the returned file are not counted.
func (i *Inject) Open(name string) (io.ReadCloser, error) {
	if _, err := i.check(OpReadFile, name, 0); err != nil {
		return nil, err
	}
	return i.inner.Open(name)
}

// Size implements FS.
func (i *Inject) Size(name string) (int64, error) {
	if _, err := i.check(OpSize, name, 0); err != nil {
		return 0, err
	}
	return i.inner.Size(name)
}

// Truncate implements FS.
func (i *Inject) Truncate(name string, size int64) error {
	if _, err := i.check(OpTruncate, name, 0); err != nil {
		return err
	}
	return i.inner.Truncate(name, size)
}

// Rename implements FS.
func (i *Inject) Rename(oldpath, newpath string) error {
	if _, err := i.check(OpRename, oldpath, 0); err != nil {
		return err
	}
	return i.inner.Rename(oldpath, newpath)
}

// SyncDir implements FS.
func (i *Inject) SyncDir(dir string) error {
	if _, err := i.check(OpSyncDir, dir, 0); err != nil {
		return err
	}
	return i.inner.SyncDir(dir)
}

// OpenFile implements FS.
func (i *Inject) OpenFile(name string, flag int) (File, error) {
	if _, err := i.check(OpOpen, name, 0); err != nil {
		return nil, err
	}
	f, err := i.inner.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &injHandle{inj: i, inner: f, name: name}, nil
}

// injHandle wraps an open file so writes, syncs, truncates, and closes
// pass through the injector.
type injHandle struct {
	inj   *Inject
	inner File
	name  string
}

// Write implements File; an injected failure with Short > 0 tears the
// write, persisting only a prefix.
func (h *injHandle) Write(p []byte) (int, error) {
	short, err := h.inj.check(OpWrite, h.name, len(p))
	if err != nil {
		n := 0
		if short > 0 {
			if short > len(p) {
				short = len(p)
			}
			n, _ = h.inner.Write(p[:short])
		}
		return n, err
	}
	return h.inner.Write(p)
}

// Sync implements File.
func (h *injHandle) Sync() error {
	if _, err := h.inj.check(OpSync, h.name, 0); err != nil {
		return err
	}
	return h.inner.Sync()
}

// Truncate implements File.
func (h *injHandle) Truncate(size int64) error {
	if _, err := h.inj.check(OpTruncate, h.name, 0); err != nil {
		return err
	}
	return h.inner.Truncate(size)
}

// Close implements File. Close is never failed by fault rules — the
// journal treats close errors as unrecoverable, and no real filesystem
// fails close without a preceding write/sync error — but it still
// counts toward, and can trigger, the CrashAt schedule.
func (h *injHandle) Close() error {
	h.inj.mu.Lock()
	h.inj.ops++
	if h.inj.crashAt > 0 && h.inj.ops >= h.inj.crashAt {
		h.inj.crashed = true
	}
	crashed := h.inj.crashed
	h.inj.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return h.inner.Close()
}
