package contextpref_test

// Runtime mirror of cpvet's metricnames analyzer: build a live
// registry the way the serving binary does — resolution counters,
// directory population, journal instruments, health tracker, HTTP
// serving metrics — and assert every name the registry actually
// exposes obeys the naming contract. The AST pass sees only literal
// names at registration call sites; this test catches dynamically
// built names and whatever future wiring registers on the side.

import (
	"bufio"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"contextpref"
	"contextpref/httpapi"
	"contextpref/internal/dataset"
	"contextpref/internal/journal"
)

var liveMetricNameRE = regexp.MustCompile(`^cp_[a-z0-9_]+$`)

// liveNameExceptions are names the static pass suppresses with a
// reason; the runtime mirror honors the same short list. Keep this in
// sync with the //cpvet:ignore metricnames directives in the tree.
var liveNameExceptions = map[string]string{
	"cp_resolve_cells": "histogram of cells per resolution: unitless distribution, not a timing",
}

// buildLiveRegistry registers every instrument the serving stack
// registers.
func buildLiveRegistry(t *testing.T) *contextpref.TelemetryRegistry {
	t.Helper()
	reg := contextpref.NewTelemetryRegistry()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The directory is sharded with a tiny residency bound, journaled,
	// and compacted once, so every cp_shard_* family (users, resident,
	// evictions, loads, degraded, compactions) exposes real children.
	dir, err := contextpref.NewDirectory(env, rel,
		contextpref.WithDirectoryTelemetry(reg),
		contextpref.WithShards(2),
		contextpref.WithMaxResidentUsers(1))
	if err != nil {
		t.Fatal(err)
	}
	js := make([]*journal.Journal, 2)
	for i := range js {
		j, recs, err := journal.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		if err := dir.ReplayShard(i, recs); err != nil {
			t.Fatal(err)
		}
		dir.SetShardHealth(i, contextpref.NewShardHealth(i))
		dir.SetShardPersister(i, contextpref.NewJournalPersister(j))
		js[i] = j
	}
	contextpref.RegisterShardHealthTelemetry(dir.ShardHealths(), reg)
	comp, err := contextpref.NewStaggeredCompactor(dir, js, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		u, err := dir.User(fmt.Sprintf("mc-u-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := u.LoadProfile("[] => type = park : 0.4"); err != nil {
			t.Fatal(err)
		}
	}
	// Re-exporting every user forces parked profiles to rebuild, so the
	// loads counter moves alongside the evictions one.
	for _, name := range dir.Users() {
		u, _ := dir.Lookup(name)
		if _, err := u.ExportProfile(); err != nil {
			t.Fatal(err)
		}
	}
	if err := comp.CompactAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := contextpref.NewJournalMetrics(reg); m == nil {
		t.Fatal("NewJournalMetrics returned nil for a live registry")
	}
	// The replication wiring: one instrument set per journal segment,
	// exposed as cp_replication_shard_* vectors.
	segms := contextpref.NewShardedReplicationMetrics(reg, 2)
	if len(segms) != 2 {
		t.Fatalf("NewShardedReplicationMetrics built %d instrument sets, want 2", len(segms))
	}
	for i, m := range segms {
		m.Lag.Set(float64(i))
		m.Shipped.Inc()
		m.Applied.Inc()
		m.Reconnects.Inc()
		m.SnapshotBytes.Set(float64(100 * i))
	}
	if m := contextpref.NewTraceMetrics(reg); m == nil {
		t.Fatal("NewTraceMetrics returned nil for a live registry")
	}
	contextpref.RegisterBuildInfo(reg)
	defaultUserServer(t, env, rel, []contextpref.Option{contextpref.WithTelemetry(reg)}, "", httpapi.WithTelemetry(reg))
	return reg
}

func TestLiveRegistryNameConformance(t *testing.T) {
	reg := buildLiveRegistry(t)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]string) // name -> counter|gauge|histogram
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" {
			continue
		}
		name, kind := fields[2], fields[3]
		if prev, dup := kinds[name]; dup {
			t.Errorf("metric %s exposed twice (as %s and %s)", name, prev, kind)
		}
		kinds[name] = kind
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(kinds) < 20 {
		t.Fatalf("live registry exposed only %d metrics; the serving wiring did not register", len(kinds))
	}
	for name, kind := range kinds {
		if !liveMetricNameRE.MatchString(name) {
			t.Errorf("metric %s does not match ^cp_[a-z0-9_]+$", name)
		}
		if _, excepted := liveNameExceptions[name]; excepted {
			continue
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s must end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") {
				t.Errorf("histogram %s must end in _seconds", name)
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				t.Errorf("gauge %s must not end in _total", name)
			}
		default:
			t.Errorf("metric %s has unknown kind %q", name, kind)
		}
	}
	// The exceptions list must not rot: every entry still names a live
	// metric.
	for name := range liveNameExceptions {
		if _, ok := kinds[name]; !ok {
			t.Errorf("exception for %s no longer matches a registered metric; drop it", name)
		}
	}

	// Per-shard families really are wired into the serving stack, and
	// every shard label value is the bounded numeric index — never a
	// user identifier (the static pass only sees label names; the values
	// are checkable only here).
	for _, name := range []string{
		"cp_shard_users", "cp_shard_resident_users", "cp_shard_evictions_total",
		"cp_shard_loads_total", "cp_shard_compactions_total", "cp_shard_degraded",
		"cp_replication_shard_lag_seconds", "cp_replication_shard_records_total",
		"cp_replication_shard_reconnects_total", "cp_replication_shard_snapshot_bytes",
	} {
		if _, ok := kinds[name]; !ok {
			t.Errorf("per-shard metric %s missing from the live registry", name)
		}
	}
	shardLabelRE := regexp.MustCompile(`shard="([^"]*)"`)
	numericRE := regexp.MustCompile(`^[0-9]+$`)
	sawShardSeries := false
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "cp_shard_") && !strings.HasPrefix(line, "cp_replication_shard_") {
			continue
		}
		m := shardLabelRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("per-shard series missing the shard label: %s", line)
			continue
		}
		sawShardSeries = true
		if !numericRE.MatchString(m[1]) {
			t.Errorf("shard label value %q is not a numeric index: %s", m[1], line)
		}
	}
	if !sawShardSeries {
		t.Error("live registry exposed no cp_shard_* series")
	}
}

// TestBuildInfoMetric: cp_build_info is a constant-1 gauge carrying
// the build identity as labels — the join key for correlating scrapes
// with deploys. A test binary runs outside VCS stamping, so the label
// values may be "unknown", but the labels themselves must be present.
func TestBuildInfoMetric(t *testing.T) {
	reg := contextpref.NewTelemetryRegistry()
	contextpref.RegisterBuildInfo(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "cp_build_info{") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("cp_build_info not exposed:\n%s", out)
	}
	for _, want := range []string{`go_version="`, `vcs_revision="`} {
		if !strings.Contains(line, want) {
			t.Errorf("cp_build_info is missing the %s label: %s", want, line)
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("cp_build_info must be constant 1: %s", line)
	}
	// The Go version is always stamped into a `go test` binary, so the
	// label should carry a real value here, not the fallback.
	if strings.Contains(line, `go_version="unknown"`) {
		t.Errorf("go_version fell back to unknown in a go-built binary: %s", line)
	}
}
