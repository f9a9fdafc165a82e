package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// exercise runs the same op sequence against any FS and returns the
// final journal-file bytes, so OS and MemFS can be checked for
// identical semantics.
func exercise(t *testing.T, fsys FS, dir string) string {
	t.Helper()
	if err := fsys.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "f.txt")
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"one\n", "two\n", "three\n"} {
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Roll back the last record, then append over the cut: O_APPEND
	// must continue at the new end.
	if err := f.Truncate(int64(len("one\ntwo\n"))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("THREE\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sz, err := fsys.Size(name); err != nil || sz != int64(len("one\ntwo\nTHREE\n")) {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	// Atomic-replace dance: write temp, rename over, fsync dir.
	tmp := filepath.Join(dir, "f.tmp")
	tf, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Write([]byte("replaced\n")); err != nil {
		t.Fatal(err)
	}
	if err := tf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Size(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("renamed-away temp Size err = %v, want ErrNotExist", err)
	}
	if err := fsys.Remove(name); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(name); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("double remove err = %v, want ErrNotExist", err)
	}
	// Re-create to read back.
	rf, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Write([]byte("final\n")); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	data, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestOSAndMemFSAgree(t *testing.T) {
	osGot := exercise(t, OS{}, t.TempDir())
	memGot := exercise(t, NewMemFS(), "/mem/store")
	if osGot != memGot {
		t.Errorf("OS produced %q, MemFS produced %q", osGot, memGot)
	}
	if osGot != "final\n" {
		t.Errorf("final contents = %q, want %q", osGot, "final\n")
	}
}

func TestMemFSReadFileMissing(t *testing.T) {
	m := NewMemFS()
	if _, err := m.ReadFile("/nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadFile missing = %v, want ErrNotExist", err)
	}
	if _, err := m.OpenFile("/nope", os.O_WRONLY); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("OpenFile without O_CREATE = %v, want ErrNotExist", err)
	}
}

func TestInjectNthMatchingOp(t *testing.T) {
	inj := NewInject(NewMemFS())
	inj.AddFault(Fault{Op: OpWrite, After: 1, Count: 1, Err: ErrNoSpace})
	f, err := inj.OpenFile("/j", os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatalf("first write = %v, want nil", err)
	}
	if _, err := f.Write([]byte("b")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("second write = %v, want ENOSPC", err)
	}
	if _, err := f.Write([]byte("c")); err != nil {
		t.Fatalf("third write = %v, want nil (Count=1 exhausted)", err)
	}
	data, _ := inj.ReadFile("/j")
	if string(data) != "ac" {
		t.Errorf("contents = %q, want %q", data, "ac")
	}
}

func TestInjectShortWrite(t *testing.T) {
	inj := NewInject(NewMemFS())
	inj.AddFault(Fault{Op: OpWrite, Count: 1, Err: ErrIO, Short: 3})
	f, _ := inj.OpenFile("/j", os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrIO) {
		t.Fatalf("torn write = (%d, %v), want (3, EIO)", n, err)
	}
	data, _ := inj.ReadFile("/j")
	if string(data) != "abc" {
		t.Errorf("contents = %q, want %q (the torn prefix)", data, "abc")
	}
}

func TestInjectPathFilter(t *testing.T) {
	inj := NewInject(NewMemFS())
	inj.AddFault(Fault{Op: OpWrite, Path: "journal", Err: ErrIO})
	jf, _ := inj.OpenFile("/store/journal.cpj", os.O_CREATE|os.O_WRONLY)
	of, _ := inj.OpenFile("/store/other.cpj", os.O_CREATE|os.O_WRONLY)
	if _, err := jf.Write([]byte("x")); !errors.Is(err, ErrIO) {
		t.Errorf("journal write = %v, want EIO", err)
	}
	if _, err := of.Write([]byte("x")); err != nil {
		t.Errorf("other write = %v, want nil", err)
	}
}

func TestInjectCrashFault(t *testing.T) {
	inj := NewInject(NewMemFS())
	inj.AddFault(Fault{Op: OpSync, Count: 1, Err: ErrIO, Crash: true})
	f, _ := inj.OpenFile("/j", os.O_CREATE|os.O_WRONLY)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("sync = %v, want EIO", err)
	}
	if !inj.Crashed() {
		t.Fatal("not crashed after Crash fault fired")
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash write = %v, want ErrCrashed", err)
	}
	if _, err := inj.OpenFile("/k", os.O_CREATE|os.O_WRONLY); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash open = %v, want ErrCrashed", err)
	}
	inj.Lift()
	if _, err := f.Write([]byte("z")); err != nil {
		t.Errorf("post-Lift write = %v, want nil", err)
	}
}

func TestInjectCrashAtEveryOp(t *testing.T) {
	// The counting pass measures the op space; every crash index must
	// then stop the workload at exactly that op.
	workload := func(fsys FS) error {
		if err := fsys.MkdirAll("/d"); err != nil {
			return err
		}
		f, err := fsys.OpenFile("/d/f", os.O_CREATE|os.O_WRONLY|os.O_APPEND)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("hello")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	}
	counter := NewInject(NewMemFS())
	if err := workload(counter); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total != 5 {
		t.Fatalf("workload ops = %d, want 5", total)
	}
	for k := 1; k <= total; k++ {
		inj := NewInject(NewMemFS())
		inj.CrashAt(k)
		if err := workload(inj); err == nil {
			t.Errorf("crash at op %d: workload succeeded", k)
		}
		if !inj.Crashed() {
			t.Errorf("crash at op %d: not crashed", k)
		}
	}
}

func TestInjectOpsCounts(t *testing.T) {
	inj := NewInject(NewMemFS())
	_ = inj.MkdirAll("/d")
	f, _ := inj.OpenFile("/d/f", os.O_CREATE|os.O_WRONLY)
	_, _ = f.Write([]byte("x"))
	_ = f.Sync()
	_ = f.Close()
	_, _ = inj.Size("/d/f")
	_, _ = inj.ReadFile("/d/f")
	if got := inj.Ops(); got != 7 {
		t.Errorf("Ops = %d, want 7", got)
	}
}

// TestOpenReadsLikeReadFile pins the streaming open to ReadFile: on OS
// and MemFS it reads the same bytes and reports a missing file as
// fs.ErrNotExist, and under injection it is one operation of the
// readfile fault class.
func TestOpenReadsLikeReadFile(t *testing.T) {
	for name, tc := range map[string]struct {
		fsys FS
		dir  string
	}{"OS": {OS{}, t.TempDir()}, "MemFS": {NewMemFS(), "/mem/open"}} {
		file := filepath.Join(tc.dir, "f.txt")
		exercise(t, tc.fsys, tc.dir)
		want, err := tc.fsys.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tc.fsys.Open(file)
		if err != nil {
			t.Fatalf("%s: Open = %v", name, err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || string(got) != string(want) {
			t.Errorf("%s: Open read %q, %v; ReadFile %q", name, got, err, want)
		}
		if _, err := tc.fsys.Open(filepath.Join(tc.dir, "nope")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: Open missing = %v, want ErrNotExist", name, err)
		}
	}
	inj := NewInject(NewMemFS())
	exercise(t, inj, "/d")
	ops := inj.Ops()
	inj.AddFault(Fault{Op: OpReadFile, Count: 1, Err: ErrIO})
	if _, err := inj.Open("/d/f.txt"); !errors.Is(err, ErrIO) {
		t.Fatalf("Open under a readfile fault = %v, want EIO", err)
	}
	r, err := inj.Open("/d/f.txt")
	if err != nil {
		t.Fatalf("Open after the fault = %v", err)
	}
	if _, err := io.ReadAll(r); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if got := inj.Ops() - ops; got != 2 {
		t.Errorf("two opens and a read counted %d operations, want 2", got)
	}
}
