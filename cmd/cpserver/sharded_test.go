package main

// End-to-end sharded serving: per-shard journal segments under the
// store, the SHARDS meta file pinning the shard count, crash recovery
// across segments, the shutdown path compacting every shard, and the
// refusal of a store laid out before every store was sharded.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"contextpref"
	"contextpref/internal/journal"
)

func TestServeShardedStore(t *testing.T) {
	store := t.TempDir()
	c := cfg(30, 7, "jaccard", "", 16, "")
	c.store = store
	c.shards = 2
	c.probeInterval = 10 * time.Millisecond
	c.compactInterval = time.Hour

	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.journals) != 2 || len(a.healths) != 2 || a.compactor == nil {
		t.Fatalf("sharded build: journals=%d healths=%d compactor=%v",
			len(a.journals), len(a.healths), a.compactor)
	}
	if _, err := os.Stat(filepath.Join(store, "journal.cpj")); !os.IsNotExist(err) {
		t.Fatalf("sharded build opened a root journal: %v", err)
	}
	// The store layout: SHARDS meta plus one segment directory per shard.
	if b, err := os.ReadFile(filepath.Join(store, "SHARDS")); err != nil || strings.TrimSpace(string(b)) != "2" {
		t.Fatalf("SHARDS meta = %q, %v; want 2", b, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(filepath.Join(store, journal.ShardDir(i), "journal.cpj")); err != nil {
			t.Fatalf("shard %d segment missing: %v", i, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(ctx, a, ln, nil, c) }()

	// One user per shard, routed by the pinned hash.
	var users [2]string
	for i := 0; len(users[0]) == 0 || len(users[1]) == 0; i++ {
		name := fmt.Sprintf("u-%d", i)
		users[contextpref.UserShard(name, 2)] = name
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for i, user := range users {
		pref := fmt.Sprintf("[time = t%02d] => type = museum : 0.%d", i+1, i+5)
		resp, err := client.Post(base+"/preferences?user="+user, "text/plain", strings.NewReader(pref))
		if err != nil {
			t.Fatal(err)
		}
		if readBody(t, resp); resp.StatusCode != 200 {
			t.Fatalf("add for %s = %d", user, resp.StatusCode)
		}
	}
	// /readyz reports both shards healthy.
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != 200 || !strings.Contains(body, `"shards"`) {
		t.Fatalf("sharded readyz = %d: %s", resp.StatusCode, body)
	}

	// Graceful shutdown compacts and closes every segment.
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Each segment holds only its own shard's user.
	for i := 0; i < 2; i++ {
		j, recs, err := journal.Open(filepath.Join(store, journal.ShardDir(i)))
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if len(recs) == 0 {
			t.Fatalf("shard %d segment empty after shutdown", i)
		}
		for _, r := range recs {
			if r.User != users[i] {
				t.Errorf("shard %d segment holds record for %q, want only %q", i, r.User, users[i])
			}
		}
	}

	// Restart recovers both users from their segments.
	a2, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a2.api)
	defer ts.Close()
	defer closeJournals(a2)
	resp2, err := ts.Client().Get(ts.URL + "/users")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp2); !strings.Contains(body, users[0]) || !strings.Contains(body, users[1]) {
		t.Errorf("recovered users = %s", body)
	}
	for _, user := range users {
		resp, err := ts.Client().Get(ts.URL + "/stats?user=" + user)
		if err != nil {
			t.Fatal(err)
		}
		if body := readBody(t, resp); !strings.Contains(body, `"Preferences":1`) {
			t.Errorf("%s recovered stats = %s", user, body)
		}
	}
}

func TestShardMetaMismatch(t *testing.T) {
	store := t.TempDir()
	c := cfg(30, 7, "jaccard", "", 16, "")
	c.store = store
	c.shards = 4
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	closeJournals(a)
	// Reopening with a different count must fail, naming the real one.
	c.shards = 2
	if _, err := build(c); err == nil || !strings.Contains(err.Error(), "4 shards") {
		t.Fatalf("shard-count mismatch error = %v", err)
	}
	// Reopening with one shard must fail too (the meta pins 4).
	c.shards = 1
	if _, err := build(c); err == nil {
		t.Fatal("one-shard reopen of a 4-shard store succeeded")
	}
	// The right count reopens fine.
	c.shards = 4
	a2, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	closeJournals(a2)
}

func TestShardFlagValidation(t *testing.T) {
	c := cfg(30, 7, "jaccard", "", 16, "")
	c.shards = 2
	a, err := build(c)
	if err != nil {
		t.Fatalf("in-memory sharded build error = %v", err)
	}
	if n := a.api.Directory().NumShards(); n != 2 {
		t.Fatalf("in-memory build has %d shards, want 2", n)
	}
	// A sharded leader builds: each journal segment ships on its own
	// replication stream.
	c = cfg(30, 7, "jaccard", "", 16, "")
	c.shards = 2
	c.store = t.TempDir()
	c.replicateAddr = ":0"
	a0, err := build(c)
	if err != nil {
		t.Fatalf("sharded leader build error = %v", err)
	}
	if a0.leader == nil || a0.leader.Segments() != 2 {
		t.Fatalf("sharded leader = %+v, want 2 segments", a0.leader)
	}
	a0.leader.Close()
	closeJournals(a0)
	// A one-shard store cannot be re-opened with two shards.
	store := t.TempDir()
	c2 := cfg(30, 7, "jaccard", "", 16, "")
	c2.store = store
	a1, err := build(c2)
	if err != nil {
		t.Fatal(err)
	}
	closeJournals(a1)
	c2.shards = 2
	if _, err := build(c2); err == nil || !strings.Contains(err.Error(), "created with 1 shards") {
		t.Fatalf("re-sharding error = %v", err)
	}
}

// TestLegacyStoreLayout: a store with a root journal is refused with a
// message naming the layout, and none of its files changes — with no
// SHARDS file, and halfway through the README's move; after the whole
// move into shard-000/ with a SHARDS file holding 1, a former
// multi-user store reopens with every user and preference.
func TestLegacyStoreLayout(t *testing.T) {
	store := t.TempDir()
	// Lay the store out as a multi-user server without shards did: a
	// root journal of user-tagged records, compacted once so that both
	// journal.cpj and snapshot.cpj exist.
	j, _, err := journal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []journal.Record{
		{Op: journal.OpUser, User: "alice"},
		{Op: journal.OpAdd, User: "alice", Line: "[accompanying_people = friends] => type = brewery : 0.9"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]journal.Record{
		{Op: journal.OpUser, User: "alice"},
		{Op: journal.OpAdd, User: "alice", Line: "[accompanying_people = friends] => type = brewery : 0.9"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []journal.Record{
		{Op: journal.OpUser, User: "bob"},
		{Op: journal.OpAdd, User: "bob", Line: "[time = t01] => type = museum : 0.7"},
		{Op: journal.OpAdd, User: "bob", Line: "[time = t02] => type = park : 0.4"},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, store)
	if _, ok := before["snapshot.cpj"]; !ok {
		t.Fatalf("legacy store has no snapshot.cpj: %v", before)
	}

	c := cfg(30, 7, "jaccard", "", 16, "")
	c.store = store
	refused := func(step string) {
		t.Helper()
		if _, err := build(c); err == nil || !strings.Contains(err.Error(), "holds a root journal.cpj") {
			t.Fatalf("%s: build error = %v, want the layout refusal", step, err)
		}
		after := readTree(t, store)
		if len(after) != len(before) {
			t.Fatalf("%s: refusal changed the store's files: %v -> %v", step, keys(before), keys(after))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Fatalf("%s: refusal changed %s", step, name)
			}
		}
	}
	refused("legacy store")

	// The README's one-time move, with SHARDS written first: the half-
	// moved store is refused too.
	if err := os.WriteFile(filepath.Join(store, "SHARDS"), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before = readTree(t, store)
	refused("half-moved store")
	if err := os.Mkdir(filepath.Join(store, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"journal.cpj", "snapshot.cpj"} {
		if err := os.Rename(filepath.Join(store, name), filepath.Join(store, "shard-000", name)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := build(c)
	if err != nil {
		t.Fatalf("moved store: %v", err)
	}
	defer closeJournals(a)
	dir := a.api.Directory()
	if got := strings.Join(dir.Users(), ","); got != "alice,bob" {
		t.Fatalf("moved store users = %s, want alice,bob", got)
	}
	for user, want := range map[string]int{"alice": 1, "bob": 2} {
		u, _ := dir.Lookup(user)
		if got := u.NumPreferences(); got != want {
			t.Errorf("moved store: %s has %d preferences, want %d", user, got, want)
		}
	}
}

// readTree returns every regular file under root by relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
