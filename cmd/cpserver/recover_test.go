package main

// Parallel store recovery: build opens and replays every shard's
// journal segment in its own goroutine. What it recovers must not
// depend on that — the same users and profiles as replaying the
// segments one after another — and neither may the error a damaged
// store reports.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"contextpref"
	"contextpref/internal/dataset"
	"contextpref/internal/journal"
)

const recoveryShards = 4

// recoveryConfig is a 4-shard journaled server over store.
func recoveryConfig(store string) config {
	c := cfg(30, 7, "jaccard", "", 16, "")
	c.store = store
	c.shards = recoveryShards
	c.compactInterval = time.Hour
	return c
}

// writeRecoveryHistory builds a server on a fresh 4-shard store and
// drives a history through its directory: in every shard, users are
// created, take adds from a small shared pool of lines (so lines repeat
// across users), remove one of them, and some are dropped and created
// again with a different profile. The journals are then closed without
// compaction, as a crash leaves them.
func writeRecoveryHistory(t *testing.T) string {
	t.Helper()
	store := t.TempDir()
	a, err := build(recoveryConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	defer closeJournals(a)
	dir := a.api.Directory()
	pool := []string{
		"[time = t01] => type = museum : 0.8",
		"[accompanying_people = friends] => type = brewery : 0.9",
		"[accompanying_people = family; time = t02] => type = park : 0.6",
		"[] => type = gallery : 0.4",
		"[time = t03] => type = theater : 0.7",
	}
	pref := func(i int) contextpref.Preference {
		p, err := contextpref.ParsePreference(pool[i%len(pool)])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	perShard := make([]map[string]int, recoveryShards)
	for i := range perShard {
		perShard[i] = map[string]int{}
	}
	for u := 0; u < 48; u++ {
		name := fmt.Sprintf("user-%02d", u)
		shard := dir.ShardOf(name)
		sys, err := dir.User(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if err := sys.AddPreference(pref(u + k)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.RemovePreference(pref(u + 1)); err != nil {
			t.Fatal(err)
		}
		perShard[shard]["remove"]++
		if u%3 != 0 {
			continue
		}
		if ok, err := dir.RemoveUser(name); err != nil || !ok {
			t.Fatalf("RemoveUser(%s) = %v, %v", name, ok, err)
		}
		perShard[shard]["drop"]++
		if u%2 != 0 {
			continue
		}
		again, err := dir.User(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.AddPreference(pref(u + 3)); err != nil {
			t.Fatal(err)
		}
		perShard[shard]["re-create"]++
	}
	for i, kinds := range perShard {
		for _, kind := range []string{"remove", "drop", "re-create"} {
			if kinds[kind] == 0 {
				t.Fatalf("shard %d history has no %s", i, kind)
			}
		}
	}
	return store
}

// replaySequentially recovers a store the way recovery ran before it
// went parallel: each shard's segment opened and replayed in turn.
func replaySequentially(t *testing.T, store string) *contextpref.Directory {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := contextpref.NewDirectory(env, rel, contextpref.WithShards(recoveryShards))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < recoveryShards; i++ {
		j, recs, err := journal.Open(filepath.Join(store, journal.ShardDir(i)))
		if err != nil {
			t.Fatal(err)
		}
		err = d.ReplayShard(i, recs)
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// profiles exports every user's profile.
func profiles(t *testing.T, d *contextpref.Directory) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range d.Users() {
		sys, ok := d.Lookup(name)
		if !ok {
			t.Fatalf("user %s listed but not found", name)
		}
		text, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = text
	}
	return out
}

func TestParallelRecoveryMatchesSequential(t *testing.T) {
	store := writeRecoveryHistory(t)
	want := replaySequentially(t, store)
	for run := 0; run < 5; run++ {
		a, err := build(recoveryConfig(store))
		if err != nil {
			t.Fatal(err)
		}
		got := a.api.Directory()
		closeJournals(a)
		if got.NumUsers() != want.NumUsers() {
			t.Fatalf("run %d: %d users, sequential replay %d", run, got.NumUsers(), want.NumUsers())
		}
		for i := 0; i < recoveryShards; i++ {
			if g, w := strings.Join(got.ShardUsers(i), ","), strings.Join(want.ShardUsers(i), ","); g != w {
				t.Fatalf("run %d: shard %d users %s, sequential replay %s", run, i, g, w)
			}
		}
		gotProfiles, wantProfiles := profiles(t, got), profiles(t, want)
		for name, text := range wantProfiles {
			if gotProfiles[name] != text {
				t.Errorf("run %d: user %s profile\n%s\nsequential replay\n%s", run, name, gotProfiles[name], text)
			}
		}
	}
}

func TestParallelRecoveryReportsLowestShardError(t *testing.T) {
	store := writeRecoveryHistory(t)
	// A committed record with a valid checksum whose line is not a
	// preference: the scan keeps it and replay refuses it. Shard 2 is
	// damaged first, so neither write order nor finishing order favours
	// shard 0.
	for _, shard := range []int{2, 0} {
		user := ""
		for u := 0; user == ""; u++ {
			if name := fmt.Sprintf("bad-%d", u); contextpref.UserShard(name, recoveryShards) == shard {
				user = name
			}
		}
		j, _, err := journal.Open(filepath.Join(store, journal.ShardDir(shard)))
		if err != nil {
			t.Fatal(err)
		}
		err = j.Append(journal.Record{Op: journal.OpUser, User: user},
			journal.Record{Op: journal.OpAdd, User: user, Line: "not a preference"})
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var first string
	for run := 0; run < 20; run++ {
		a, err := build(recoveryConfig(store))
		if err == nil {
			closeJournals(a)
			t.Fatalf("run %d: build recovered a store with a bad record in shards 0 and 2", run)
		}
		if run == 0 {
			first = err.Error()
			if !strings.HasPrefix(first, "replaying shard 0 store: contextpref: replaying shard 0 record ") ||
				!strings.Contains(first, `"not a preference"`) {
				t.Fatalf("build error = %q, want shard 0's replay error", first)
			}
		} else if err.Error() != first {
			t.Fatalf("run %d: build error %q, run 0 %q", run, err, first)
		}
	}
}
