package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a throwaway module for the driver to analyze.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestRunCleanTree(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":    "module scratch\n\ngo 1.22\n",
		"lib.go":    "package lib\n\nimport \"fmt\"\n\nfunc wrap(err error) error { return fmt.Errorf(\"x: %w\", err) }\n",
		"m_test.go": "package lib\n\nimport \"fmt\"\n\nvar _ = fmt.Errorf // test files are out of scope\n",
	})
	var out, errOut strings.Builder
	if code := run([]string{"-dir", root, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("run on clean tree = %d, stderr %q, stdout %q", code, errOut.String(), out.String())
	}
	if out.String() != "" {
		t.Errorf("clean tree printed findings:\n%s", out.String())
	}
}

func TestRunFindingsExitNonZero(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"lib.go": "package lib\n\nimport \"fmt\"\n\nfunc wrap(err error) error { return fmt.Errorf(\"x: %v\", err) }\n",
	})
	var out, errOut strings.Builder
	if code := run([]string{"-dir", root}, &out, &errOut); code != 1 {
		t.Fatalf("run on dirty tree = %d, want 1 (stderr %q)", code, errOut.String())
	}
	want := "lib.go:5: errwrap:"
	if !strings.Contains(out.String(), want) {
		t.Errorf("report %q does not contain %q", out.String(), want)
	}
}

func TestRunSubsetAndList(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"lib.go": "package lib\n\nimport \"fmt\"\n\nfunc wrap(err error) error { return fmt.Errorf(\"x: %v\", err) }\n",
	})
	var out, errOut strings.Builder
	// Selecting an analyzer the violation does not trip exits clean.
	if code := run([]string{"-dir", root, "-run", "slogonly"}, &out, &errOut); code != 0 {
		t.Fatalf("run -run slogonly = %d, want 0", code)
	}
	if code := run([]string{"-run", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run -run nosuch = %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run -list = %d, want 0", code)
	}
	for _, name := range []string{"structerr", "slogonly", "ctxloop", "metricnames", "nondeterminism", "errwrap"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output is missing analyzer %s:\n%s", name, out.String())
		}
	}
}

func TestRunJSONReport(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"lib.go": "package lib\n\nimport \"fmt\"\n\nfunc wrap(err error) error { return fmt.Errorf(\"x: %v\", err) }\n",
	})
	var out, errOut strings.Builder
	if code := run([]string{"-dir", root, "-json"}, &out, &errOut); code != 1 {
		t.Fatalf("run -json on dirty tree = %d, want 1 (stderr %q)", code, errOut.String())
	}
	var rep struct {
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "errwrap" || rep.Findings[0].File != "lib.go" || rep.Findings[0].Line != 5 {
		t.Errorf("unexpected findings: %+v", rep.Findings)
	}

	// A clean tree emits "findings": [], not null.
	clean := writeTree(t, map[string]string{"go.mod": "module scratch\n\ngo 1.22\n", "lib.go": "package lib\n"})
	out.Reset()
	if code := run([]string{"-dir", clean, "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("run -json on clean tree = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "\"findings\": []") {
		t.Errorf("clean JSON report should contain an empty findings array:\n%s", out.String())
	}
}

func TestRejectsForeignPatterns(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"/elsewhere/..."}, &out, &errOut); code != 2 {
		t.Fatalf("run with absolute pattern = %d, want 2", code)
	}
}
