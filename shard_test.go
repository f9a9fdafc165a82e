package contextpref

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
)

// TestUserShardGolden pins the user → shard assignment for a fixed user
// list at shard counts 1, 4, and 16. The assignment decides which
// journal segment owns a user's records, so it must be stable across
// releases: if this test fails, the routing hash changed and every
// existing sharded store would replay users from the wrong segments.
// Do not regenerate the table to make it pass.
func TestUserShardGolden(t *testing.T) {
	golden := []struct {
		user    string
		shard4  int
		shard16 int
	}{
		{"alice", 3, 7},
		{"bob", 0, 4},
		{"carol", 2, 2},
		{"dave", 3, 15},
		{"erin", 1, 9},
		{"frank", 3, 3},
		{"grace", 3, 11},
		{"heidi", 2, 6},
		{"ivan", 1, 1},
		{"judy", 3, 7},
		{"mallory", 1, 9},
		{"olivia", 3, 11},
		{"peggy", 3, 7},
		{"trent", 0, 0},
		{"walter", 2, 14},
		{"default", 2, 14},
		{"user-001", 0, 12},
		{"user-042", 1, 1},
		{"user-7", 2, 14},
		{"", 1, 5},
	}
	for _, g := range golden {
		if got := UserShard(g.user, 1); got != 0 {
			t.Errorf("UserShard(%q, 1) = %d, want 0", g.user, got)
		}
		if got := UserShard(g.user, 4); got != g.shard4 {
			t.Errorf("UserShard(%q, 4) = %d, want %d", g.user, got, g.shard4)
		}
		if got := UserShard(g.user, 16); got != g.shard16 {
			t.Errorf("UserShard(%q, 16) = %d, want %d", g.user, got, g.shard16)
		}
	}
}

// shardUsers returns per-shard user names ("u-<shard>-<k>") so tests
// can target specific shards deterministically.
func shardUsers(shards, perShard int) [][]string {
	out := make([][]string, shards)
	i := 0
	for {
		done := true
		for s := range out {
			if len(out[s]) < perShard {
				done = false
			}
		}
		if done {
			return out
		}
		name := fmt.Sprintf("u-%d", i)
		i++
		s := UserShard(name, shards)
		if len(out[s]) < perShard {
			out[s] = append(out[s], name)
		}
	}
}

// TestDirectoryShardRouting: every user lands in exactly the shard
// ShardOf names, ShardUsers partitions Users, and lookups route
// consistently.
func TestDirectoryShardRouting(t *testing.T) {
	env, rel := persistFixture(t)
	d, err := NewDirectory(env, rel, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	users := shardUsers(4, 3)
	for _, names := range users {
		for _, name := range names {
			if _, err := d.User(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := 0
	for s := 0; s < 4; s++ {
		got := d.ShardUsers(s)
		total += len(got)
		for _, name := range got {
			if d.ShardOf(name) != s {
				t.Errorf("user %q listed in shard %d but ShardOf says %d", name, s, d.ShardOf(name))
			}
		}
	}
	if want := len(d.Users()); total != want {
		t.Errorf("shard partitions hold %d users, directory has %d", total, want)
	}
	if d.NumUsers() != total {
		t.Errorf("NumUsers = %d, want %d", d.NumUsers(), total)
	}
}

// TestDirectoryResidentBound: over WithMaxResidentUsers the directory
// parks idle profiles; parked users stay visible, keep their exact
// profile, and rematerialize transparently on access.
func TestDirectoryResidentBound(t *testing.T) {
	env, rel := persistFixture(t)
	d, err := NewDirectory(env, rel, WithMaxResidentUsers(2))
	if err != nil {
		t.Fatal(err)
	}
	const users = 6
	exports := make(map[string]string, users)
	for i := 0; i < users; i++ {
		name := fmt.Sprintf("u-%d", i)
		sys, err := d.User(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadProfile(fmt.Sprintf(
			"[accompanying_people = friends] => type = museum : 0.%d", i+1)); err != nil {
			t.Fatal(err)
		}
		export, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		exports[name] = export
	}
	if got := d.NumUsers(); got != users {
		t.Fatalf("NumUsers = %d, want %d", got, users)
	}
	if got := d.ResidentUsers(); got > 2 {
		t.Fatalf("ResidentUsers = %d, want <= 2", got)
	}
	// The earliest users must have been parked…
	sys0, ok := d.Lookup("u-0")
	if !ok {
		t.Fatal("parked user vanished from the directory")
	}
	if sys0.Resident() {
		t.Fatal("u-0 still resident with a bound of 2 and 6 users")
	}
	// …and rematerialize with the identical profile on access.
	for name, want := range exports {
		sys, ok := d.Lookup(name)
		if !ok {
			t.Fatalf("user %q missing", name)
		}
		got, err := sys.ExportProfile()
		if err != nil {
			t.Fatalf("user %q: %v", name, err)
		}
		if got != want {
			t.Errorf("user %q export changed across parking:\n%s\nwant:\n%s", name, got, want)
		}
	}
	// Accessing a parked user rematerializes it (later accesses above may
	// have parked it again under the bound of 2 — touch it once more).
	if _, err := sys0.ExportProfile(); err != nil {
		t.Fatal(err)
	}
	if !sys0.Resident() {
		t.Fatal("u-0 not resident after access")
	}
}

// TestParkedMutationAndRecovery: mutations against a parked user
// materialize it, persist normally, and the whole directory — parked
// and resident users alike — replays exactly after a restart.
func TestParkedMutationAndRecovery(t *testing.T) {
	env, rel := persistFixture(t)
	store := t.TempDir()

	j, recs := openJournal(t, store)
	d, err := NewDirectory(env, rel, WithMaxResidentUsers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Replay(recs); err != nil {
		t.Fatal(err)
	}
	d.SetPersister(NewJournalPersister(j))
	for i := 0; i < 4; i++ {
		sys, err := d.User(fmt.Sprintf("u-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadProfile("[time = t05] => type = gallery : 0.7"); err != nil {
			t.Fatal(err)
		}
	}
	// u-0 is parked by now; mutating it must rebuild it first.
	sys0, _ := d.Lookup("u-0")
	if sys0.Resident() {
		t.Fatal("u-0 unexpectedly resident")
	}
	if err := sys0.LoadProfile("[accompanying_people = family] => type = park : 0.5"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, name := range d.Users() {
		sys, _ := d.Lookup(name)
		export, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		want[name] = canonical(t, export)
	}
	j.Close() // crash: no snapshot

	j2, recs2 := openJournal(t, store)
	defer j2.Close()
	d2, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Replay(recs2); err != nil {
		t.Fatal(err)
	}
	if got, wantN := len(d2.Users()), len(want); got != wantN {
		t.Fatalf("recovered %d users, want %d", got, wantN)
	}
	for name, w := range want {
		sys, ok := d2.Lookup(name)
		if !ok {
			t.Fatalf("user %q not recovered", name)
		}
		export, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(t, export); got != w {
			t.Errorf("user %q recovered:\n%s\nwant:\n%s", name, got, w)
		}
	}
}

// TestRemoveUserDropFailureKeepsUser is the regression test for the
// remove/replay divergence: when the drop record cannot be journaled,
// the user must stay in the directory (matching what a post-crash
// replay would reconstruct) instead of vanishing from memory while the
// journal still resurrects it.
func TestRemoveUserDropFailureKeepsUser(t *testing.T) {
	env, rel := persistFixture(t)
	inj := faultfs.NewInject(faultfs.NewMemFS())
	j, _, err := journal.OpenFS(inj, "/store", journal.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	d, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	d.SetPersister(NewJournalPersister(j))
	h := NewShardHealth(0)
	d.SetShardHealth(0, h)

	alice, err := d.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadProfile("[time = t05] => type = gallery : 0.7"); err != nil {
		t.Fatal(err)
	}
	wantExport, err := alice.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}

	inj.AddFault(faultfs.Fault{Op: faultfs.OpWrite, Err: faultfs.ErrNoSpace})
	ok, err := d.RemoveUser("alice")
	if ok || err == nil {
		t.Fatalf("RemoveUser with failing journal = (%v, %v), want (false, error)", ok, err)
	}
	var degraded *DegradedError
	if !errors.As(err, &degraded) {
		t.Fatalf("RemoveUser error = %v, want *DegradedError", err)
	}

	// The user must still be there, fully usable, with the persister
	// re-attached for when the store recovers.
	sys, found := d.Lookup("alice")
	if !found {
		t.Fatal("alice vanished after a failed drop")
	}
	if got, _ := sys.ExportProfile(); got != wantExport {
		t.Errorf("alice's profile changed across the failed drop:\n%s\nwant:\n%s", got, wantExport)
	}
	if got := d.Users(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("Users() = %v, want [alice]", got)
	}

	// In-memory state and replay now agree: reopening the surviving
	// journal bytes still holds alice.
	inj.Lift()
	h.MarkHealthy()
	// A post-recovery mutation must journal again (persister re-attached).
	if err := sys.LoadProfile("[accompanying_people = family] => type = park : 0.5"); err != nil {
		t.Fatal(err)
	}
	// And the retried removal succeeds and sticks.
	if ok, err := d.RemoveUser("alice"); !ok || err != nil {
		t.Fatalf("retried RemoveUser = (%v, %v), want (true, nil)", ok, err)
	}
	if _, found := d.Lookup("alice"); found {
		t.Fatal("alice still present after successful removal")
	}
}

// TestRemoveUserDropFailureReplayAgrees proves the other half of the
// divergence fix: after the failed drop (without a retry), a replay of
// the journal reconstructs the user — exactly what the in-memory
// directory now also says.
func TestRemoveUserDropFailureReplayAgrees(t *testing.T) {
	env, rel := persistFixture(t)
	mem := faultfs.NewMemFS()
	inj := faultfs.NewInject(mem)
	j, _, err := journal.OpenFS(inj, "/store", journal.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	d.SetPersister(NewJournalPersister(j))
	d.SetShardHealth(0, NewShardHealth(0))
	alice, err := d.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadProfile("[time = t05] => type = gallery : 0.7"); err != nil {
		t.Fatal(err)
	}
	inj.AddFault(faultfs.Fault{Op: faultfs.OpWrite, Err: faultfs.ErrNoSpace})
	if ok, err := d.RemoveUser("alice"); ok || err == nil {
		t.Fatalf("RemoveUser = (%v, %v), want failure", ok, err)
	}
	j.Close()

	j2, recs, err := journal.OpenFS(mem, "/store")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	d2, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Replay(recs); err != nil {
		t.Fatal(err)
	}
	if _, found := d2.Lookup("alice"); !found {
		t.Fatal("replay lost alice even though the drop was never journaled")
	}
	if got, want := strings.Join(d2.Users(), ","), strings.Join(d.Users(), ","); got != want {
		t.Errorf("replayed users %q != live users %q", got, want)
	}
}

// TestReplayShardRejectsForeignUsers: replaying a segment into a
// directory with a different shard count fails loudly instead of
// scattering users across wrong journals.
func TestReplayShardRejectsForeignUsers(t *testing.T) {
	env, rel := persistFixture(t)
	d, err := NewDirectory(env, rel, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	users := shardUsers(4, 1)
	// A record for a shard-0 user replayed into shard 1 must fail.
	recs := []journal.Record{{Op: journal.OpUser, User: users[0][0]}}
	if err := d.ReplayShard(1, recs); err == nil {
		t.Fatal("ReplayShard accepted a user belonging to another shard")
	}
	if err := d.ReplayShard(0, recs); err != nil {
		t.Fatalf("ReplayShard rejected its own user: %v", err)
	}
	if err := d.ReplayShard(7, nil); err == nil {
		t.Fatal("ReplayShard accepted an out-of-range shard")
	}
}
