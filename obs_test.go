package contextpref

import (
	"errors"
	"strings"
	"testing"

	"contextpref/internal/dataset"
	"contextpref/internal/journal"
)

func obsFixture(t *testing.T) (*Environment, *Relation) {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	return env, rel
}

// TestSystemTelemetry: a system built WithTelemetry reports resolution
// cost into the shared registry, matching the cells count the tree
// itself returns.
func TestSystemTelemetry(t *testing.T) {
	env, rel := obsFixture(t)
	reg := NewTelemetryRegistry()
	sys, err := NewSystem(env, rel, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProfile("[accompanying_people = friends] => type = brewery : 0.9"); err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewState("friends", "t01", "ath_r01")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Resolve(st); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ResolveAll(st); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`cp_resolve_total{outcome="hit"} 2`,
		"cp_resolve_cells_total ",
		"cp_resolve_candidates_total ",
		"cp_resolve_cells_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	snap := reg.Snapshot()
	if snap["cp_resolve_cells_total"].(uint64) == 0 {
		t.Error("no cells recorded")
	}
}

// TestSystemTelemetryDisabled: without WithTelemetry (and with a nil
// registry) resolution works identically and records nothing.
func TestSystemTelemetryDisabled(t *testing.T) {
	env, rel := obsFixture(t)
	sys, err := NewSystem(env, rel, WithTelemetry(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProfile("[accompanying_people = friends] => type = brewery : 0.9"); err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewState("friends", "t01", "ath_r01")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sys.Resolve(st); err != nil || !ok {
		t.Fatalf("resolve without telemetry: ok=%v err=%v", ok, err)
	}
}

// TestDirectoryTelemetry: user creations and drops are counted and the
// resident-user gauge tracks the population; per-user systems share the
// resolution counters.
func TestDirectoryTelemetry(t *testing.T) {
	env, rel := obsFixture(t)
	reg := NewTelemetryRegistry()
	dir, err := NewDirectory(env, rel, WithDirectoryTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if _, err := dir.User(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dir.RemoveUser("bob"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cp_directory_users_created_total 3",
		"cp_directory_users_dropped_total 1",
		"cp_directory_users 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// Per-user systems inherit the registry for resolution counters.
	sys, _ := dir.Lookup("alice")
	if err := sys.LoadProfile("[accompanying_people = friends] => type = brewery : 0.9"); err != nil {
		t.Fatal(err)
	}
	st, _ := sys.NewState("friends", "t01", "ath_r01")
	if _, _, err := sys.Resolve(st); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot()["cp_resolve_cells_total"].(uint64) == 0 {
		t.Error("per-user resolve not aggregated into the shared registry")
	}
}

// TestJournalTelemetry: appends and compactions report latency, bytes,
// and the journal size gauge through NewJournalMetrics.
func TestJournalTelemetry(t *testing.T) {
	env, rel := obsFixture(t)
	reg := NewTelemetryRegistry()
	j, _, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetMetrics(NewJournalMetrics(reg))

	sys, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(NewJournalPersister(j), "")
	if err := sys.LoadProfile("[accompanying_people = friends] => type = brewery : 0.9"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	fsync := snap["cp_journal_fsync_seconds"].(map[string]any)
	if fsync["count"].(uint64) != 1 {
		t.Errorf("fsync count = %v", fsync["count"])
	}
	if snap["cp_journal_append_records_total"].(uint64) != 1 {
		t.Errorf("append records = %v", snap["cp_journal_append_records_total"])
	}
	if snap["cp_journal_append_bytes_total"].(uint64) == 0 {
		t.Error("no append bytes recorded")
	}
	sizeAfterAppend := snap["cp_journal_size_bytes"].(float64)
	if sizeAfterAppend == 0 {
		t.Error("size gauge not primed")
	}

	state, err := sys.SnapshotRecords("")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	comp := snap["cp_journal_snapshot_seconds"].(map[string]any)
	if comp["count"].(uint64) != 1 {
		t.Errorf("snapshot count = %v", comp["count"])
	}
	if snap["cp_journal_snapshot_bytes"].(float64) == 0 {
		t.Error("snapshot bytes gauge unset")
	}
	got := snap["cp_journal_size_bytes"].(float64)
	if got >= sizeAfterAppend {
		t.Errorf("compaction did not shrink the size gauge: %v -> %v", sizeAfterAppend, got)
	}
	if int64(got) != j.Size() {
		t.Errorf("size gauge %v != journal size %d", got, j.Size())
	}
}

// TestHealthTelemetry: the degraded gauge, transition counters, and
// probe counters report through RegisterShardHealthTelemetry.
func TestHealthTelemetry(t *testing.T) {
	reg := NewTelemetryRegistry()
	h := NewShardHealth(0)
	RegisterShardHealthTelemetry([]*Health{h, nil}, reg) // nil trackers are skipped
	RegisterShardHealthTelemetry([]*Health{h}, nil)      // no-op

	metric := func(name string) string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, name) {
				return line
			}
		}
		return ""
	}
	if got := metric("cp_health_degraded "); !strings.HasSuffix(got, " 0") {
		t.Errorf("healthy gauge line = %q", got)
	}
	cause := errors.New("disk full")
	h.MarkDegraded(cause)
	h.MarkDegraded(cause) // idempotent: one transition
	if got := metric("cp_health_degraded "); !strings.HasSuffix(got, " 1") {
		t.Errorf("degraded gauge line = %q", got)
	}
	h.MarkHealthy()
	if got := metric(`cp_health_transitions_total{to="degraded"}`); !strings.HasSuffix(got, " 1") {
		t.Errorf("degraded transitions line = %q", got)
	}
	if got := metric(`cp_health_transitions_total{to="healthy"}`); !strings.HasSuffix(got, " 1") {
		t.Errorf("healthy transitions line = %q", got)
	}
}
