package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contextpref/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// runFixture loads testdata/<name> and runs the given analyzers
// through the full driver (so //cpvet:ignore handling is part of what
// the goldens lock in), returning the formatted report.
func runFixture(t *testing.T, name string, analyzers []*lint.Analyzer) string {
	t.Helper()
	repo, err := lint.Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Files) == 0 {
		t.Fatalf("fixture %s loaded no files", name)
	}
	var b strings.Builder
	for _, d := range lint.Run(repo, analyzers) {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/lint -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestAnalyzerGoldens runs each analyzer alone over its fixture
// directory. Every fixture contains flagged (positive) and clean
// (negative) declarations; the golden holding exactly the positive
// lines proves both directions.
func TestAnalyzerGoldens(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			got := runFixture(t, a.Name, []*lint.Analyzer{a})
			if got == "" {
				t.Fatalf("fixture %s produced no findings; positive cases are missing", a.Name)
			}
			checkGolden(t, a.Name, got)
		})
	}
}

// TestSuppressions locks in the directive semantics: reasoned ignores
// on the same or preceding line suppress, and malformed directives
// (missing reason, unknown analyzer, unknown verb) are findings
// themselves that suppress nothing.
func TestSuppressions(t *testing.T) {
	got := runFixture(t, "suppress", lint.All())
	checkGolden(t, "suppress", got)
	for _, banned := range []string{"flattened on purpose", "also flattened"} {
		if strings.Contains(got, banned) {
			t.Errorf("suppressed finding leaked into the report: %q\n%s", banned, got)
		}
	}
	for _, needed := range []string{"missing the mandatory reason", "unknown analyzer", "unknown directive"} {
		if !strings.Contains(got, needed) {
			t.Errorf("report is missing a malformed-directive finding containing %q\n%s", needed, got)
		}
	}
}

// TestRepoShipsClean is the acceptance gate inside the test suite:
// the analyzers run over this repository's own tree must report
// nothing. Reverting any invariant fix (a %w, a suppression reason, a
// scan-loop check) fails this test, not just make lint.
func TestRepoShipsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s: %v", root, err)
	}
	repo, err := lint.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(repo, lint.All())
	for _, d := range diags {
		t.Errorf("%s", d.String())
	}
}

// TestAnchorsPresent guards the anchor comments themselves: the
// ctxloop contract is only as strong as the //cpvet:scanloop markers
// on the hot-path functions, so losing one during a refactor must
// fail loudly.
func TestAnchorsPresent(t *testing.T) {
	anchors := map[string]int{
		"internal/profiletree/tree.go":       1, // coverWalk.walk, the one Search_CS traversal
		"internal/profiletree/sequential.go": 1, // SearchCoverCtx
		"internal/relation/relation.go":      1, // SelectCtx
		"internal/query/query.go":            1, // ExecuteCtx
	}
	for rel, want := range anchors {
		src, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(string(src), "//cpvet:scanloop"); got < want {
			t.Errorf("%s has %d //cpvet:scanloop anchors, want at least %d", rel, got, want)
		}
	}
	journal, err := os.ReadFile(filepath.Join("..", "..", "internal", "journal", "journal.go"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(journal), "//cpvet:deterministic"); got < 3 {
		t.Errorf("journal.go has %d //cpvet:deterministic anchors, want at least 3 (readSnapshot, readJournal, migrate)", got)
	}

	// The lock-across-fsync decisions must stay documented at their
	// functions: losing a //cpvet:lockheld anchor either resurrects a
	// lockorder finding (if the code still holds the lock) or silently
	// drops the documented contract (if it no longer does).
	lockheld := map[string]int{
		"internal/journal/journal.go":   4, // AppendCtx, Probe, SnapshotCtx, Close
		"internal/journal/replicate.go": 2, // AppendReplicatedCtx, InstallSnapshot
		"compact.go":                    2, // CompactNext, CompactAll
	}
	for rel, want := range lockheld {
		src, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(string(src), "//cpvet:lockheld"); got < want {
			t.Errorf("%s has %d //cpvet:lockheld anchors, want at least %d", rel, got, want)
		}
	}
}

// TestHotpathInventory guards the allocation anchors: every declared
// hot path must keep its //cpvet:hotpath budget, and each budget is
// mirrored by a testing.AllocsPerRun assertion in the root package's
// TestHotpathAllocBudgets.
func TestHotpathInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	repo, err := lint.LoadSyntax(root)
	if err != nil {
		t.Fatal(err)
	}
	hotpaths := lint.Hotpaths(repo)
	got := make(map[string]int, len(hotpaths))
	for _, hp := range hotpaths {
		got[hp.Func] = hp.Allocs
	}
	want := []string{
		"internal/profiletree.(*Tree).ResolveCtx",
		"internal/querytree.(*Cache).Get",
		"internal/querytree.(*Cache).GetTop",
		"internal/telemetry.(*Histogram).Observe",
		"internal/tracing.Start",
	}
	for _, fn := range want {
		if _, ok := got[fn]; !ok {
			t.Errorf("hot path %s lost its //cpvet:hotpath anchor", fn)
		}
	}
}
