// Command cpvet runs the repository's static-analysis pass: eleven
// analyzers that enforce the service-layer contracts (structured HTTP
// errors, slog-only logging, cooperative cancellation in scan loops,
// cp_* telemetry naming, deterministic fault-injection paths, %w
// error wrapping, span lifetimes) and the concurrency and allocation
// contracts (lock ordering, unlock discipline, goroutine lifecycles,
// hot-path allocation budgets). It is stdlib-only: syntax plus a
// whole-module go/types resolution, no build cache required.
//
// Usage:
//
//	cpvet [-list] [-run a,b] [-dir root] [-json] [packages]
//
// The contracts are repo-global (metric names must be unique across
// the module, for instance), so cpvet always analyzes the whole
// module containing the working directory; package patterns such as
// ./... are accepted for interface familiarity and validated but do
// not narrow the scan. Findings print as "file:line: analyzer:
// message" and a non-empty report exits 1. With -json the report is a
// machine-readable object for CI artifacts.
//
// Suppress a finding with a reasoned directive on or directly above
// the offending line:
//
//	//cpvet:ignore <analyzer> <reason>
//
// A directive without a reason (or naming an unknown analyzer) is
// itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"contextpref/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("dir", "", "module root to analyze (default: locate go.mod upward from the working directory)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "cpvet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	for _, pat := range fs.Args() {
		if !validPattern(pat) {
			fmt.Fprintf(stderr, "cpvet: package pattern %q is outside the module; cpvet analyzes the whole module\n", pat)
			return 2
		}
	}

	root := *dir
	if root == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fmt.Fprintf(stderr, "cpvet: %v\n", err)
			return 2
		}
		root, err = findModuleRoot(cwd)
		if err != nil {
			fmt.Fprintf(stderr, "cpvet: %v\n", err)
			return 2
		}
	}

	repo, err := lint.Load(root)
	if err != nil {
		fmt.Fprintf(stderr, "cpvet: %v\n", err)
		return 2
	}
	diags := lint.Run(repo, analyzers)

	findings := make([]finding, len(diags))
	for i, d := range diags {
		findings[i] = finding{File: d.Pos.Filename, Line: d.Pos.Line, Analyzer: d.Analyzer, Message: d.Message}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Findings: findings}); err != nil {
			fmt.Fprintf(stderr, "cpvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "cpvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
}

// report is the -json output document.
type report struct {
	Findings []finding `json:"findings"`
}

// validPattern accepts the module-relative patterns people habitually
// pass (./..., ., ./pkg/...); anything absolute or up-traversing is
// rejected so the module-wide scan is never mistaken for obedience.
func validPattern(pat string) bool {
	return !filepath.IsAbs(pat) && !strings.HasPrefix(pat, "..")
}

// findModuleRoot walks upward from dir to the directory holding
// go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found upward of the working directory")
		}
		dir = parent
	}
}
