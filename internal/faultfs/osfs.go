package faultfs

import (
	"io"
	"os"
)

// OS is the passthrough implementation over the real filesystem — the
// production default. The zero value is ready to use.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Open implements FS.
func (OS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

// Size implements FS.
func (OS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}
