package contextpref

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"contextpref/internal/dataset"
	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
)

// recordLines returns the Line of every record, for comparing archives.
func recordLines(recs []journal.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Line
	}
	return out
}

// addRecords builds journal add-records for one user.
func addRecords(user string, lines ...string) []journal.Record {
	out := []journal.Record{{Op: journal.OpUser, User: user}}
	for _, l := range lines {
		out = append(out, journal.Record{Op: journal.OpAdd, User: user, Line: l})
	}
	return out
}

// normalizedLines is what re-encoding a profile produces: one line per
// stored (state, clause, score) entry.
func normalizedLines(t *testing.T, sys *SafeSystem) []string {
	t.Helper()
	export, err := sys.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	return recordLines(profileRecords("", export))
}

// TestParkArchiveRules pins when a park reuses the records the profile
// was rebuilt from and when it re-encodes the tree: the archive is
// re-parked byte-identical while nothing changed, re-encoded after a
// mutation (an add, or a delete that removed an entry), dropped when it
// holds removes, and never kept without a resident bound.
func TestParkArchiveRules(t *testing.T) {
	env, rel := persistFixture(t)
	// An in-set descriptor: the original line denotes two states, so
	// its normalized form has a line more and tells the two apart.
	orig := []string{
		"[time in {t01, t02}] => type = museum : 0.7",
		"[accompanying_people = friends] => type = park : 0.4",
	}
	recs := append(addRecords("a", orig...), addRecords("b")...)
	recs = append(recs, addRecords("c", orig...)...)
	recs = append(recs, journal.Record{Op: journal.OpRemove, User: "c", Line: orig[1]})

	d, err := NewDirectory(env, rel, WithMaxResidentUsers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Replay(recs); err != nil {
		t.Fatal(err)
	}
	a, _ := d.Lookup("a")
	b, _ := d.Lookup("b")
	c, _ := d.Lookup("c")
	cycle := func() { // unpark a, then park it by touching b
		t.Helper()
		a.NumPreferences()
		if a.archive == nil {
			t.Fatal("no archive kept for an add-only rebuild")
		}
		b.NumPreferences()
		if a.Resident() {
			t.Fatal("a still resident with a bound of 1")
		}
	}

	t.Run("unchanged re-parks the archive", func(t *testing.T) {
		for i := 0; i < 3; i++ {
			cycle()
			if got := recordLines(a.parked); !reflect.DeepEqual(got, orig) {
				t.Fatalf("cycle %d parked %q, want the replayed lines %q", i, got, orig)
			}
		}
		// A delete that removes nothing does not move the version either.
		if n, err := a.RemovePreference(MustPreference(MustDescriptor(Eq("time", "t03")),
			Clause{Attr: "type", Op: OpEq, Val: String("museum")}, 0.7)); err != nil || n != 0 {
			t.Fatalf("no-op remove = %d, %v", n, err)
		}
		b.NumPreferences()
		if got := recordLines(a.parked); !reflect.DeepEqual(got, orig) {
			t.Fatalf("after a no-op remove parked %q, want %q", got, orig)
		}
	})

	t.Run("mutation re-encodes", func(t *testing.T) {
		if err := a.LoadProfile("[location = ath_r01] => type = cafe : 0.3"); err != nil {
			t.Fatal(err)
		}
		want := normalizedLines(t, a)
		if len(want) != 4 {
			t.Fatalf("normalized form has %d lines, want 4", len(want))
		}
		b.NumPreferences()
		if got := recordLines(a.parked); !reflect.DeepEqual(got, want) {
			t.Fatalf("after an add parked %q, want the re-encoded %q", got, want)
		}
		if a.archive != nil {
			t.Fatal("parked handle still holds an archive")
		}
		// The re-encoded form is itself reused on the next cycle.
		cycle()
		if got := recordLines(a.parked); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-encoded form not reused: parked %q, want %q", got, want)
		}
		// A delete that removed an entry re-encodes too.
		if n, err := a.RemovePreference(MustPreference(MustDescriptor(Eq("location", "ath_r01")),
			Clause{Attr: "type", Op: OpEq, Val: String("cafe")}, 0.3)); err != nil || n != 1 {
			t.Fatalf("remove = %d, %v", n, err)
		}
		want = normalizedLines(t, a)
		b.NumPreferences()
		if got := recordLines(a.parked); !reflect.DeepEqual(got, want) || len(want) != 3 {
			t.Fatalf("after a remove parked %q, want the re-encoded %q (3 lines)", got, want)
		}
	})

	t.Run("removes drop the archive", func(t *testing.T) {
		c.NumPreferences()
		if c.archive != nil {
			t.Fatalf("archive with a remove record kept: %q", recordLines(c.archive))
		}
		want := normalizedLines(t, c)
		b.NumPreferences()
		if got := recordLines(c.parked); !reflect.DeepEqual(got, want) || len(want) != 2 {
			t.Fatalf("parked %q, want the re-encoded %q (2 lines)", got, want)
		}
	})

	t.Run("no archive without a resident bound", func(t *testing.T) {
		free, err := NewDirectory(env, rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := free.Replay(recs); err != nil {
			t.Fatal(err)
		}
		for _, name := range free.Users() {
			sys, _ := free.Lookup(name)
			sys.NumPreferences()
			if !sys.Resident() || sys.archive != nil {
				t.Fatalf("user %q: resident %v, archive %q", name, sys.Resident(), recordLines(sys.archive))
			}
		}
	})
}

// parkOracleFixture is the preference pool the park/unpark oracle draws
// from: generated single-state preferences, in-set preferences that
// span several states, and conflicting variants of both.
func parkOracleFixture(t *testing.T, env *Environment, seed int64) []Preference {
	t.Helper()
	pool, err := dataset.ProfileSpec{Env: env, NumPrefs: 16, Seed: seed, UpperLevelProb: 0.3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	times := env.Param(1).Hierarchy().DetailedValues()
	for i, ty := range []string{"museum", "park", "cafe"} {
		pool = append(pool, MustPreference(
			MustDescriptor(In("time", times[i], times[i+1], times[i+2])),
			Clause{Attr: "type", Op: OpEq, Val: String(ty)}, 0.3+0.2*float64(i)))
	}
	n := len(pool)
	for _, p := range pool[n-6:] {
		pool = append(pool, MustPreference(p.Descriptor, p.Clause, 1-p.Score))
	}
	return pool
}

// sameAnswer renders what a query answer means to a client: the ranked
// tuples, whether it was contextual, and each state's resolution. Cell
// counts are left out: they depend on insertion order and on the cache.
func sameAnswer(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "contextual=%v tuples=%v\n", res.Contextual, res.Tuples)
	for _, r := range res.Resolutions {
		fmt.Fprintf(&b, "%v found=%v match=%v %v %v\n", r.Query, r.Found, r.Match.State, r.Match.Entries, r.Match.Distance)
	}
	return b.String()
}

// TestParkUnparkOracle drives a journaled directory with the query cache
// and WithMaxResidentUsers(1) — so nearly every op parks one profile and
// rebuilds another — through seeded add, remove, query, resolve and
// touch-another-user ops, and checks it after every op against an
// unbounded, uncached directory fed the same ops: errors, removal
// counts, query and resolve answers, and ExportProfile must be
// identical. A replay of the bounded directory's journal must land on
// the same profiles.
func TestParkUnparkOracle(t *testing.T) {
	env, rel := persistFixture(t)
	states, err := dataset.RandomQueries(env, 64, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			pool := parkOracleFixture(t, env, seed)
			users := []string{"u-0", "u-1", "u-2", "u-3"}
			// Seed journal: every user starts parked, from records that
			// include in-set lines and, for one user, a remove.
			var seedRecs []journal.Record
			for i, u := range users {
				var lines []string
				for k := i; k < len(pool)-6; k += 2 {
					lines = append(lines, FormatPreference(pool[k]))
				}
				seedRecs = append(seedRecs, addRecords(u, lines...)...)
			}
			seedRecs = append(seedRecs, journal.Record{Op: journal.OpRemove, User: users[3], Line: FormatPreference(pool[3])})

			store := t.TempDir()
			j, _ := openJournal(t, store)
			if err := j.Append(seedRecs...); err != nil {
				t.Fatal(err)
			}
			sut, err := NewDirectory(env, rel, WithMaxResidentUsers(1), WithSystemOptions(WithQueryCache(8)))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewDirectory(env, rel)
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []*Directory{sut, ref} {
				if err := dir.Replay(seedRecs); err != nil {
					t.Fatal(err)
				}
			}
			sut.SetPersister(NewJournalPersister(j))

			rng := rand.New(rand.NewSource(seed))
			errText := func(err error) string {
				if err == nil {
					return "<nil>"
				}
				return err.Error()
			}
			unparks := 0
			for op := 0; op < 200; op++ {
				u := users[rng.Intn(len(users))]
				s, _ := sut.User(u)
				r, _ := ref.User(u)
				if !s.Resident() {
					unparks++
				}
				st := states[rng.Intn(len(states))]
				var got, want string
				switch k := rng.Intn(10); {
				case k < 3:
					batch := []Preference{pool[rng.Intn(len(pool))]}
					if rng.Intn(3) == 0 {
						batch = append(batch, pool[rng.Intn(len(pool))])
					}
					got, want = errText(s.AddPreferences(batch...)), errText(r.AddPreferences(batch...))
				case k < 5:
					p := pool[rng.Intn(len(pool))]
					n1, err1 := s.RemovePreference(p)
					n2, err2 := r.RemovePreference(p)
					got, want = fmt.Sprint(n1, errText(err1)), fmt.Sprint(n2, errText(err2))
				case k < 7:
					q := Query{TopK: 5}
					res1, err1 := s.Query(q, st)
					res2, err2 := r.Query(q, st)
					if err1 != nil || err2 != nil {
						t.Fatalf("op %d: query errors %v / %v", op, err1, err2)
					}
					got, want = sameAnswer(res1), sameAnswer(res2)
				case k < 9:
					c1, err1 := s.ResolveAll(st)
					c2, err2 := r.ResolveAll(st)
					got, want = fmt.Sprint(c1, errText(err1)), fmt.Sprint(c2, errText(err2))
				default:
					other := users[(rng.Intn(len(users)-1)+1+slices.Index(users, u))%len(users)]
					o, _ := sut.User(other)
					o.Stats()
				}
				if got != want {
					t.Fatalf("op %d on %s: bounded answered\n%s\nunbounded answered\n%s", op, u, got, want)
				}
				if e1, e2 := mustExport(t, s), mustExport(t, r); e1 != e2 {
					t.Fatalf("op %d: %s exports differ:\n%s\nwant:\n%s", op, u, e1, e2)
				}
				if n := sut.ResidentUsers(); n > 1 {
					t.Fatalf("op %d: %d resident users, bound 1", op, n)
				}
			}
			if unparks < 50 {
				t.Fatalf("only %d unparks in 200 ops; the sequence no longer exercises parking", unparks)
			}
			j.Close()

			j2, recs := openJournal(t, store)
			defer j2.Close()
			replayed, err := NewDirectory(env, rel)
			if err != nil {
				t.Fatal(err)
			}
			if err := replayed.Replay(recs); err != nil {
				t.Fatal(err)
			}
			for _, u := range users {
				x, _ := replayed.Lookup(u)
				r, _ := ref.Lookup(u)
				if e1, e2 := mustExport(t, x), mustExport(t, r); e1 != e2 {
					t.Fatalf("replayed %s:\n%s\nwant:\n%s", u, e1, e2)
				}
			}
		})
	}
}

func mustExport(t *testing.T, s *SafeSystem) string {
	t.Helper()
	e, err := s.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// residentSetSize counts the handles in every shard's resident set.
func residentSetSize(d *Directory) int {
	n := 0
	for _, sh := range d.shards {
		sh.mu.RLock()
		n += len(sh.residents)
		sh.mu.RUnlock()
	}
	return n
}

// checkResidentSet asserts the resident set matches the shard maps: its
// size is ResidentUsers(), and it holds exactly the resident handles
// the shards own.
func checkResidentSet(t *testing.T, d *Directory, step string) {
	t.Helper()
	if got, want := residentSetSize(d), d.ResidentUsers(); got != want {
		t.Fatalf("%s: resident set holds %d handles, ResidentUsers() = %d", step, got, want)
	}
	for i, sh := range d.shards {
		sh.mu.RLock()
		for name, sys := range sh.systems {
			if _, in := sh.residents[sys]; in != sys.Resident() {
				sh.mu.RUnlock()
				t.Fatalf("%s: shard %d user %q resident=%v but in set=%v", step, i, name, sys.Resident(), in)
			}
		}
		for sys := range sh.residents {
			if sh.systems[sys.user] != sys {
				sh.mu.RUnlock()
				t.Fatalf("%s: shard %d resident set holds %q, which the shard does not own", step, i, sys.user)
			}
		}
		sh.mu.RUnlock()
	}
}

// TestResidentSetConsistency walks the resident set through every path
// that changes it — create, park, unpark, RemoveUser, a replayed drop,
// and the reattach after a failed drop — and checks after each that it
// holds exactly the resident handles, as many as ResidentUsers().
func TestResidentSetConsistency(t *testing.T) {
	env, rel := persistFixture(t)
	inj := faultfs.NewInject(faultfs.NewMemFS())
	j, _, err := journal.OpenFS(inj, "/store", journal.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	d, err := NewDirectory(env, rel, WithShards(2), WithMaxResidentUsers(4))
	if err != nil {
		t.Fatal(err)
	}
	// A parked user straight from replay.
	if err := d.Replay(addRecords("replayed", "[time = t05] => type = gallery : 0.7")); err != nil {
		t.Fatal(err)
	}
	checkResidentSet(t, d, "replay")
	// Both shards share one journal, so they share one fault domain.
	d.SetPersister(NewJournalPersister(j))
	h := NewHealth()
	d.SetShardHealth(0, h)
	d.SetShardHealth(1, h)

	users := shardUsers(2, 5)
	for _, names := range users {
		for _, name := range names {
			sys, err := d.User(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadProfile("[accompanying_people = friends] => type = park : 0.4"); err != nil {
				t.Fatal(err)
			}
			checkResidentSet(t, d, "create "+name)
		}
	}
	if got := d.ResidentUsers(); got != 4 {
		t.Fatalf("ResidentUsers = %d, want 4 (2 per shard)", got)
	}
	// Unpark every user in turn; each unpark parks another.
	for _, name := range append(d.Users(), "replayed") {
		sys, _ := d.Lookup(name)
		sys.NumPreferences()
		checkResidentSet(t, d, "unpark "+name)
	}
	// pick returns a shard's first user that is (or is not) resident.
	pick := func(shard int, resident bool) string {
		t.Helper()
		for _, name := range users[shard] {
			if sys, ok := d.Lookup(name); ok && sys.Resident() == resident {
				return name
			}
		}
		t.Fatalf("shard %d has no user with resident=%v", shard, resident)
		return ""
	}
	// RemoveUser of a resident and of a parked user.
	for _, name := range []string{pick(0, true), pick(1, false)} {
		if ok, err := d.RemoveUser(name); !ok || err != nil {
			t.Fatalf("RemoveUser(%s) = %v, %v", name, ok, err)
		}
		checkResidentSet(t, d, "remove "+name)
	}
	// A replayed drop (the replication apply path) of a resident user.
	victim := pick(0, true)
	if err := d.ReplayShard(0, []journal.Record{{Op: journal.OpDrop, User: victim}}); err != nil {
		t.Fatal(err)
	}
	checkResidentSet(t, d, "replayed drop")
	// A failed drop reattaches the user, resident or parked.
	for _, wasResident := range []bool{true, false} {
		name := pick(1, wasResident)
		sys, _ := d.Lookup(name)
		inj.AddFault(faultfs.Fault{Op: faultfs.OpWrite, Err: faultfs.ErrNoSpace})
		ok, err := d.RemoveUser(name)
		var degraded *DegradedError
		if ok || !errors.As(err, &degraded) {
			t.Fatalf("RemoveUser(%s) with a failing journal = %v, %v", name, ok, err)
		}
		if sys.Resident() != wasResident {
			t.Fatalf("failed drop changed %s's residency", name)
		}
		checkResidentSet(t, d, "failed drop "+name)
		inj.Lift()
		h.MarkHealthy()
		sys.NumPreferences()
		checkResidentSet(t, d, "access after failed drop "+name)
	}
	// A reset (snapshot bootstrap) of every shard empties every set.
	for i := 0; i < d.NumShards(); i++ {
		var recs []journal.Record
		if d.ShardOf("fresh") == i {
			recs = addRecords("fresh")
		}
		if err := d.ResetShardReplicated(i, recs); err != nil {
			t.Fatal(err)
		}
	}
	checkResidentSet(t, d, "reset")
}

// TestEvictionVictimMatchesFullScan: on a seeded access sequence the
// sweep parks exactly the handle the full scan of the shard's user map
// would have picked — the least-recently-touched resident handle other
// than the one being accessed.
func TestEvictionVictimMatchesFullScan(t *testing.T) {
	env, rel := persistFixture(t)
	const bound = 8
	d, err := NewDirectory(env, rel, WithMaxResidentUsers(bound))
	if err != nil {
		t.Fatal(err)
	}
	sh := d.shards[0]
	fullScan := func(keep *SafeSystem) *SafeSystem {
		var victim *SafeSystem
		var oldest int64
		for _, sys := range sh.systems {
			if sys == keep || !sys.Resident() {
				continue
			}
			if stamp := sys.lastTouch.Load(); victim == nil || stamp < oldest {
				victim, oldest = sys, stamp
			}
		}
		return victim
	}
	residents := func() map[*SafeSystem]bool {
		out := map[*SafeSystem]bool{}
		for _, sys := range sh.systems {
			if sys.Resident() {
				out[sys] = true
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(2007))
	created, evictions := 0, 0
	for step := 0; step < 600; step++ {
		name := fmt.Sprintf("u-%d", rng.Intn(created+1))
		sys, known := d.Lookup(name)
		before := residents()
		var want *SafeSystem
		if !known || !sys.Resident() {
			if len(before) >= bound {
				want = fullScan(sys) // sys is nil for a user about to be created
			}
		}
		if !known {
			created++
			if sys, err = d.User(name); err != nil {
				t.Fatal(err)
			}
		} else {
			sys.NumPreferences()
		}
		after := residents()
		if !after[sys] {
			t.Fatalf("step %d: accessed %s not resident", step, name)
		}
		for other := range before {
			if !after[other] && other != want {
				picked := "nothing"
				if want != nil {
					picked = want.user
				}
				t.Fatalf("step %d: parked %s, the full scan picked %s", step, other.user, picked)
			}
		}
		if want != nil {
			if after[want] {
				t.Fatalf("step %d: full-scan victim %s still resident", step, want.user)
			}
			evictions++
		}
		checkResidentSet(t, d, fmt.Sprintf("step %d", step))
	}
	if evictions < 100 {
		t.Fatalf("only %d evictions in 600 steps; the sequence no longer exercises the sweep", evictions)
	}
}

// TestParkConcurrentResidentSet races readers and writers across a
// bounded directory, so handles park and unpark under each other's
// feet. Each goroutine writes only its own users, mirroring every
// write into a private unbounded System; once quiescent, the resident
// set must match the shard maps and every profile must equal its
// mirror.
func TestParkConcurrentResidentSet(t *testing.T) {
	env, rel := persistFixture(t)
	d, err := NewDirectory(env, rel, WithShards(2), WithMaxResidentUsers(2), WithSystemOptions(WithQueryCache(4)))
	if err != nil {
		t.Fatal(err)
	}
	states, err := dataset.RandomQueries(env, 32, 9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 4
	pool := parkOracleFixture(t, env, 4)
	mirrors := make([][]*System, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		mirrors[w] = make([]*System, perWorker)
		for k := range mirrors[w] {
			sys, err := NewSystem(env, rel)
			if err != nil {
				t.Fatal(err)
			}
			mirrors[w][k] = sys
		}
	}
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 300; op++ {
				if rng.Intn(3) == 0 {
					k := rng.Intn(perWorker)
					sys, err := d.User(fmt.Sprintf("w%d-%d", w, k))
					if err != nil {
						errs <- err
						return
					}
					p := pool[rng.Intn(len(pool))]
					if rng.Intn(2) == 0 {
						err1, err2 := sys.AddPreference(p), mirrors[w][k].AddPreference(p)
						if (err1 == nil) != (err2 == nil) {
							errs <- fmt.Errorf("add %v: directory %v, mirror %v", p, err1, err2)
							return
						}
					} else {
						n1, _ := sys.RemovePreference(p)
						n2, _ := mirrors[w][k].RemovePreference(p)
						if n1 != n2 {
							errs <- fmt.Errorf("remove %v: directory removed %d, mirror %d", p, n1, n2)
							return
						}
					}
					continue
				}
				sys, err := d.User(fmt.Sprintf("w%d-%d", rng.Intn(workers), rng.Intn(perWorker)))
				if err != nil {
					errs <- err
					return
				}
				if _, err := sys.Query(Query{TopK: 3}, states[rng.Intn(len(states))]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkResidentSet(t, d, "quiescent")
	for w := range mirrors {
		for k, mirror := range mirrors[w] {
			sys, _ := d.User(fmt.Sprintf("w%d-%d", w, k))
			want, err := mirror.ExportProfile()
			if err != nil {
				t.Fatal(err)
			}
			if got := mustExport(t, sys); got != want {
				t.Fatalf("w%d-%d: directory\n%s\nmirror\n%s", w, k, got, want)
			}
		}
	}
}

// TestParkedRecordsOwnTheirText pins that replay archives parked
// records in memory of their own. Recovered records are substrings of
// the text they were parsed from (a whole snapshot is one string), so a
// parked record that kept them would keep all of that text alive.
func TestParkedRecordsOwnTheirText(t *testing.T) {
	env, rel := persistFixture(t)
	line := "[time = t05] => type = gallery : 0.7"
	read := strings.Repeat("#", 4096) + "\t\"alice\"\t" + line + "\n"
	user := read[strings.Index(read, "alice"):][:len("alice")]
	text := read[strings.Index(read, "["):][:len(line)]
	d, err := NewDirectory(env, rel, WithMaxResidentUsers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Replay([]journal.Record{
		{Op: journal.OpUser, User: user},
		{Op: journal.OpAdd, User: user, Line: text},
	}); err != nil {
		t.Fatal(err)
	}
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		base := uintptr(unsafe.Pointer(unsafe.StringData(read)))
		return len(s) > 0 && p >= base && p < base+uintptr(len(read))
	}
	sys, ok := d.Lookup("alice")
	if !ok || sys.Resident() {
		t.Fatalf("alice not parked after replay (found %v)", ok)
	}
	if within(sys.user) {
		t.Error("the handle's user name aliases the read text")
	}
	for name := range d.shardFor("alice").systems {
		if within(name) {
			t.Error("the shard's user key aliases the read text")
		}
	}
	if len(sys.parked) != 1 {
		t.Fatalf("parked %d records, want 1", len(sys.parked))
	}
	for _, r := range sys.parked {
		if within(r.User) || within(r.Line) {
			t.Errorf("parked record %+v aliases the read text", r)
		}
	}
	if got := sys.NumPreferences(); got != 1 {
		t.Fatalf("unparked profile has %d preferences, want 1", got)
	}
}

// TestReplaySharesOneCopyPerLine pins the line map of one replay call:
// every parked record of one text, across users, shares one copy of
// it, and that copy is not the journal text the records were read
// from.
func TestReplaySharesOneCopyPerLine(t *testing.T) {
	env, rel := persistFixture(t)
	d, err := NewDirectory(env, rel, WithShards(4), WithMaxResidentUsers(1))
	if err != nil {
		t.Fatal(err)
	}
	const line = "[time = t05] => type = gallery : 0.7"
	users := shardUsers(4, 3)[2]
	var recs []journal.Record
	read := ""
	for _, u := range users {
		recs = append(recs, addRecords(u, line)...)
		read += line
	}
	for i := range recs {
		if recs[i].Op == journal.OpAdd {
			recs[i].Line, read = read[:len(line)], read[len(line):]
		}
	}
	if err := d.ReplayShard(2, recs); err != nil {
		t.Fatal(err)
	}
	var shared *byte
	for i, u := range users {
		sys, _ := d.Lookup(u)
		if len(sys.parked) != 1 {
			t.Fatalf("%s parked %d records, want 1", u, len(sys.parked))
		}
		p := unsafe.StringData(sys.parked[0].Line)
		if p == unsafe.StringData(recs[2*i+1].Line) {
			t.Errorf("%s's parked line aliases the replayed record", u)
		}
		if shared == nil {
			shared = p
		} else if p != shared {
			t.Errorf("%s's parked line is a copy of its own", u)
		}
	}
}

// TestReplayErrorInsideARun pins what a bad line in the middle of one
// user's run of records reports and leaves behind, as when every record
// was replayed on its own: the error names the record's index and user,
// the records before it in the run are parked, and the same line fails
// again on every later replay.
func TestReplayErrorInsideARun(t *testing.T) {
	env, rel := persistFixture(t)
	const bad = "[time = t01] => type = museum : 2"
	_, parseErr := ParsePreference(bad)
	if parseErr == nil {
		t.Fatal("the bad line parses")
	}
	users := shardUsers(4, 2)[1]
	recs := append(addRecords(users[0], "[] => type = park : 0.4"),
		addRecords(users[1], "[time = t02] => type = zoo : 0.3", "[] => type = park : 0.4", bad, "[] => type = cafeteria : 0.2")...)
	d, err := NewDirectory(env, rel, WithShards(4), WithMaxResidentUsers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("contextpref: replaying shard 1 record 5 (user %q): %v", users[1], parseErr)
	for call := 0; call < 2; call++ {
		if err := d.ReplayShard(1, recs); err == nil || err.Error() != want {
			t.Fatalf("call %d: ReplayShard = %v, want %s", call, err, want)
		}
	}
	sys, ok := d.Lookup(users[1])
	if !ok {
		t.Fatalf("%s not created", users[1])
	}
	if got := recordLines(sys.parked); len(got) != 4 || got[1] != "[] => type = park : 0.4" {
		t.Errorf("%s parked %q after two failed replays, want the two lines before the bad one, twice", users[1], got)
	}
	other, err := NewDirectory(env, rel, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprintf("contextpref: replaying record 5 (user %q): %v", users[1], parseErr)
	if err := other.Replay(recs); err == nil || err.Error() != want {
		t.Errorf("Replay = %v, want %s", err, want)
	}
}
