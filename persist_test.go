package contextpref

import (
	"context"
	"errors"
	"strings"
	"testing"

	"contextpref/internal/dataset"
	"contextpref/internal/journal"
)

func persistFixture(t *testing.T) (*Environment, *Relation) {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	return env, rel
}

func openJournal(t *testing.T, dir string) (*journal.Journal, []journal.Record) {
	t.Helper()
	j, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

// TestSystemJournalRecovery: mutations on a journaled single-user
// system survive a crash (no snapshot) byte-for-byte: ExportProfile and
// Stats are identical after replay.
func TestSystemJournalRecovery(t *testing.T) {
	env, rel := persistFixture(t)
	dir := t.TempDir()

	j, recs := openJournal(t, dir)
	sys, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replay(recs); err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(NewJournalPersister(j), "")
	if err := sys.LoadProfile(`
[accompanying_people = friends] => type = brewery : 0.9
[time in {t01, t02}] => type = museum : 0.8
[] => type = park : 0.4`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RemovePreference(MustPreference(
		MustDescriptor(), Clause{Attr: "type", Op: OpEq, Val: String("park")}, 0.4)); err != nil {
		t.Fatal(err)
	}
	wantExport, err := sys.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	wantStats := sys.Stats()
	j.Close() // crash: no snapshot

	j2, recs2 := openJournal(t, dir)
	defer j2.Close()
	sys2, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.Replay(recs2); err != nil {
		t.Fatal(err)
	}
	gotExport, err := sys2.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	if gotExport != wantExport {
		t.Errorf("recovered export:\n%s\nwant:\n%s", gotExport, wantExport)
	}
	if got := sys2.Stats(); got != wantStats {
		t.Errorf("recovered stats = %+v, want %+v", got, wantStats)
	}
}

// TestDirectoryJournalRecovery covers the multi-user lifecycle: seeded
// creation, adds, user removal, and an empty-profile user all replay to
// the identical directory.
func TestDirectoryJournalRecovery(t *testing.T) {
	env, rel := persistFixture(t)
	dir := t.TempDir()
	seed := MustPreference(
		MustDescriptor(Eq("accompanying_people", "friends")),
		Clause{Attr: "type", Op: OpEq, Val: String("brewery")}, 0.9)
	newDir := func() *Directory {
		d, err := NewDirectory(env, rel, WithDefaultProfile(func(string) ([]Preference, error) {
			return []Preference{seed}, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	j, recs := openJournal(t, dir)
	d := newDir()
	if err := d.Replay(recs); err != nil {
		t.Fatal(err)
	}
	d.SetPersister(NewJournalPersister(j))

	alice, err := d.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadProfile("[time = t05] => type = gallery : 0.7"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.User("bob"); err != nil { // seeded only
		t.Fatal(err)
	}
	if _, err := d.User("carol"); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.RemoveUser("carol"); !ok || err != nil {
		t.Fatalf("RemoveUser(carol) = %v, %v", ok, err)
	}
	wantUsers := d.Users()
	wantExports := map[string]string{}
	wantStats := map[string]Stats{}
	for _, u := range wantUsers {
		sys, _ := d.Lookup(u)
		text, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		wantExports[u] = text
		wantStats[u] = sys.Stats()
	}
	j.Close() // crash

	_, recs2 := openJournal(t, dir)
	d2 := newDir()
	if err := d2.Replay(recs2); err != nil {
		t.Fatal(err)
	}
	gotUsers := d2.Users()
	if len(gotUsers) != len(wantUsers) {
		t.Fatalf("recovered users = %v, want %v", gotUsers, wantUsers)
	}
	for i, u := range wantUsers {
		if gotUsers[i] != u {
			t.Fatalf("recovered users = %v, want %v", gotUsers, wantUsers)
		}
		sys, ok := d2.Lookup(u)
		if !ok {
			t.Fatalf("user %q missing after replay", u)
		}
		text, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		if text != wantExports[u] {
			t.Errorf("user %q export:\n%s\nwant:\n%s", u, text, wantExports[u])
		}
		if got := sys.Stats(); got != wantStats[u] {
			t.Errorf("user %q stats = %+v, want %+v", u, got, wantStats[u])
		}
	}
	if _, ok := d2.Lookup("carol"); ok {
		t.Error("dropped user resurrected by replay")
	}
}

// TestDirectoryFailedSeedLeavesNoUser: a default profile whose
// preferences conflict (Def. 6) fails every access to a new user, and
// each failure leaves nothing behind — no user in memory, no creation
// record in the journal, so a replay recovers no user either.
func TestDirectoryFailedSeedLeavesNoUser(t *testing.T) {
	env, rel := persistFixture(t)
	desc := MustDescriptor(Eq("accompanying_people", "friends"))
	clause := Clause{Attr: "type", Op: OpEq, Val: String("brewery")}
	conflicting := []Preference{MustPreference(desc, clause, 0.9), MustPreference(desc, clause, 0.2)}
	dir := t.TempDir()
	j, _ := openJournal(t, dir)
	d, err := NewDirectory(env, rel, WithDefaultProfile(func(string) ([]Preference, error) {
		return conflicting, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	d.SetPersister(NewJournalPersister(j))
	for i := 0; i < 2; i++ {
		var conflict *ConflictError
		if _, err := d.User("alice"); !errors.As(err, &conflict) {
			t.Fatalf("access %d with a conflicting seed = %v, want *ConflictError", i, err)
		}
	}
	if users := d.Users(); len(users) != 0 {
		t.Fatalf("failed seed left users %v", users)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs := openJournal(t, dir)
	if len(recs) != 0 {
		t.Fatalf("failed seed journaled %+v", recs)
	}
	d2, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Replay(recs); err != nil {
		t.Fatal(err)
	}
	if users := d2.Users(); len(users) != 0 {
		t.Fatalf("replay recovered users %v", users)
	}
}

// TestDirectorySnapshotCompaction: snapshot + truncated journal still
// recovers the full tree state (preference counts are normalized by
// compaction, tree contents are exact).
func TestDirectorySnapshotCompaction(t *testing.T) {
	env, rel := persistFixture(t)
	dir := t.TempDir()

	j, _ := openJournal(t, dir)
	d, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	d.SetPersister(NewJournalPersister(j))
	alice, err := d.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.LoadProfile("[time = t05] => type = gallery : 0.7\n[] => type = park : 0.4"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.User("empty"); err != nil {
		t.Fatal(err)
	}
	state, err := d.SnapshotShardRecords(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	wantExport, err := alice.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recs := openJournal(t, dir)
	d2, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Replay(recs); err != nil {
		t.Fatal(err)
	}
	users := d2.Users()
	if len(users) != 2 || users[0] != "alice" || users[1] != "empty" {
		t.Fatalf("users after compaction = %v", users)
	}
	sys, _ := d2.Lookup("alice")
	got, err := sys.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	if got != wantExport {
		t.Errorf("compacted export:\n%s\nwant:\n%s", got, wantExport)
	}
}

// failingPersister fails every operation; mutations must not be applied
// when persistence fails.
type failingPersister struct{}

func (failingPersister) PersistCreateUser(context.Context, string) error {
	return errors.New("disk full")
}
func (failingPersister) PersistAdd(context.Context, string, ...Preference) error {
	return errors.New("disk full")
}
func (failingPersister) PersistRemove(context.Context, string, Preference) error {
	return errors.New("disk full")
}
func (failingPersister) PersistDropUser(context.Context, string) error {
	return errors.New("disk full")
}

func TestPersistFailureLeavesStateUntouched(t *testing.T) {
	env, rel := persistFixture(t)
	sys, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProfile("[] => type = park : 0.4"); err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(failingPersister{}, "")
	before := sys.Stats()

	err = sys.AddPreference(MustPreference(
		MustDescriptor(), Clause{Attr: "type", Op: OpEq, Val: String("museum")}, 0.6))
	var pe *PersistError
	if !errors.As(err, &pe) {
		t.Fatalf("add with failing persister = %v, want PersistError", err)
	}
	if _, err := sys.RemovePreference(MustPreference(
		MustDescriptor(), Clause{Attr: "type", Op: OpEq, Val: String("park")}, 0.4)); !errors.As(err, &pe) {
		t.Fatalf("remove with failing persister = %v, want PersistError", err)
	}
	if got := sys.Stats(); got != before {
		t.Errorf("failed persist mutated state: %+v -> %+v", before, got)
	}

	d, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	d.SetPersister(failingPersister{})
	if _, err := d.User("alice"); !errors.As(err, &pe) {
		t.Fatalf("user creation with failing persister = %v, want PersistError", err)
	}
	if len(d.Users()) != 0 {
		t.Errorf("failed creation left user behind: %v", d.Users())
	}
}

// TestReplayRejectsNaNScore: a NaN interest score is outside [0, 1], so
// a store holding one — written before the range check caught NaN —
// fails replay, and the error names the record and its user.
func TestReplayRejectsNaNScore(t *testing.T) {
	env, rel := persistFixture(t)
	recs := []journal.Record{
		{Op: journal.OpUser, User: "ana"},
		{Op: journal.OpAdd, User: "ana", Line: `[time = t01] => type = "museum" : 0.5`},
		{Op: journal.OpAdd, User: "ana", Line: `[time = morning] => type = "museum" : NaN`},
	}
	d, err := NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	err = d.ReplayShard(0, recs)
	if err == nil || !strings.Contains(err.Error(), `record 2 (user "ana")`) || !strings.Contains(err.Error(), "NaN outside [0, 1]") {
		t.Errorf("ReplayShard = %v, want an error naming record 2 of user ana and its NaN score", err)
	}
	sys, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Replay(recs); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("System.Replay = %v, want an error naming record 2", err)
	}
}
