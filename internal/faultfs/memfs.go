package faultfs

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// MemFS is an in-memory FS with os-like semantics for the operations
// the journal uses. It exists so crash-consistency torture tests can
// run thousands of simulated crash/recover cycles without touching the
// disk; writes apply immediately (Sync is a no-op), which models a
// filesystem that persists exactly what was written when the simulated
// crash cuts power.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

type memFile struct {
	data []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

func memPath(name string) string { return filepath.Clean(name) }

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[memPath(dir)] = true
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := memPath(name)
	if _, ok := m.files[p]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, p)
	return nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[memPath(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Open implements FS. The reader holds a copy of the file as it was
// when opened, as a file read start to end with nothing writing it.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	data, err := m.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Size implements FS.
func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[memPath(name)]
	if !ok {
		return 0, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[memPath(name)]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	return f.truncate(size)
}

func (f *memFile) truncate(size int64) error {
	if size < 0 {
		return fs.ErrInvalid
	}
	if int64(len(f.data)) > size {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, size-int64(len(f.data)))...)
	}
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	op, np := memPath(oldpath), memPath(newpath)
	f, ok := m.files[op]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, op)
	m.files[np] = f
	return nil
}

// SyncDir implements FS: a no-op, everything is already "durable".
func (m *MemFS) SyncDir(dir string) error { return nil }

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := memPath(name)
	f, ok := m.files[p]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		f = &memFile{}
		m.files[p] = f
	} else if flag&os.O_TRUNC != 0 {
		f.data = nil
	}
	return &memHandle{fs: m, f: f, appendMode: flag&os.O_APPEND != 0, pos: 0}, nil
}

// memHandle is an open MemFS file.
type memHandle struct {
	fs         *MemFS
	f          *memFile
	appendMode bool
	pos        int64
	closed     bool
}

// Write implements File.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if h.appendMode {
		h.pos = int64(len(h.f.data))
	}
	if grow := h.pos + int64(len(p)) - int64(len(h.f.data)); grow > 0 {
		h.f.data = append(h.f.data, make([]byte, grow)...)
	}
	copy(h.f.data[h.pos:], p)
	h.pos += int64(len(p))
	return len(p), nil
}

// Sync implements File: a no-op.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	return nil
}

// Truncate implements File.
func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	return h.f.truncate(size)
}

// Close implements File.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	return nil
}
