package contextpref

// The profile-load rungs: parsing one preference line, loading a whole
// 522-preference upload into a fresh system (what every POST
// /preferences of a new user costs), and recovering a parked-users
// store at startup, from records in memory and from disk.
// TestLoadAllocBudgets pins the allocation counts of the parse, the
// upload and the recovery from disk, and TestLoadRetainedHeap the heap
// a loaded profile keeps, so a regression on the load path fails tier-1
// rather than waiting for the next benchmark run.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"contextpref/internal/dataset"
	"contextpref/internal/journal"
)

// loadTextCount is how many distinct upload bodies the load benchmarks
// rotate through, so no single profile's shape dominates.
const loadTextCount = 8

// loadFixture renders the real-profile-shaped upload bodies of users
// seeded benchSeed..benchSeed+7 (522 preferences each, zipf a = 1, 20%
// upper-level values), one preference per line, over a 300-POI
// relation.
func loadFixture(tb testing.TB) (*Environment, *Relation, []string) {
	tb.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := dataset.POIs(env, 300, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	texts := make([]string, loadTextCount)
	for i := range texts {
		prefs, err := dataset.ProfileSpec{Env: env, NumPrefs: dataset.RealPrefCount, Seed: benchSeed + int64(i),
			Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
		if err != nil {
			tb.Fatal(err)
		}
		var b strings.Builder
		for _, p := range prefs {
			b.WriteString(FormatPreference(p))
			b.WriteByte('\n')
		}
		texts[i] = b.String()
	}
	return env, rel, texts
}

// loadLines splits the fixture's texts into their preference lines.
func loadLines(texts []string) []string {
	var lines []string
	for _, text := range texts {
		lines = append(lines, strings.Split(strings.TrimSuffix(text, "\n"), "\n")...)
	}
	return lines
}

// BenchmarkLoadProfile prices one upload of a new user: a fresh system
// with the serving configuration's 64-entry query cache, then
// LoadProfile of a 522-preference text.
func BenchmarkLoadProfile(b *testing.B) {
	env, rel, texts := loadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(env, rel, WithQueryCache(64))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadProfile(texts[i%loadTextCount]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePreference prices parsing one preference line, the
// step every upload line, replayed record and unparked record pays.
func BenchmarkParsePreference(b *testing.B) {
	_, _, texts := loadFixture(b)
	lines := loadLines(texts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePreference(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// The parked-users shape of cpbench: 5120 users × 20 preferences over 4
// shards, with a resident bound of 128.
const parkedUsers, parkedPrefs, parkedShards, parkedResident = 5120, 20, 4, 128

// parkedFixture generates the parked-users profiles: user u is
// "u%05d", with a 20-preference zipf profile of seed benchSeed+u over
// the real environment and a 300-POI relation.
func parkedFixture(tb testing.TB) (*Environment, *Relation, []string, [][]Preference) {
	tb.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := dataset.POIs(env, 300, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, parkedUsers)
	prefs := make([][]Preference, parkedUsers)
	for u := range names {
		names[u] = fmt.Sprintf("u%05d", u)
		prefs[u], err = dataset.ProfileSpec{Env: env, NumPrefs: parkedPrefs, Seed: benchSeed + int64(u),
			Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
		if err != nil {
			tb.Fatal(err)
		}
	}
	return env, rel, names, prefs
}

// BenchmarkDirectoryReplay prices replaying a parked-users store from
// records already in memory: ReplayShard of every shard's records into
// a fresh directory. Replay parses and validates every record and parks
// it; no profile tree is built. BenchmarkStoreRecovery adds the journal
// scan.
func BenchmarkDirectoryReplay(b *testing.B) {
	env, rel, names, prefs := parkedFixture(b)
	segs := make([][]journal.Record, parkedShards)
	for u, name := range names {
		sh := UserShard(name, parkedShards)
		segs[sh] = append(segs[sh], journal.Record{Op: journal.OpUser, User: name})
		for _, p := range prefs[u] {
			segs[sh] = append(segs[sh], journal.Record{Op: journal.OpAdd, User: name, Line: FormatPreference(p)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewDirectory(env, rel, WithShards(parkedShards), WithMaxResidentUsers(parkedResident))
		if err != nil {
			b.Fatal(err)
		}
		for sh, recs := range segs {
			if err := d.ReplayShard(sh, recs); err != nil {
				b.Fatal(err)
			}
		}
		if d.NumUsers() != parkedUsers {
			b.Fatalf("replayed %d users, want %d", d.NumUsers(), parkedUsers)
		}
	}
}

// recoveryStore writes the parked-users profiles to a fresh store under
// a temporary directory, one journal segment per shard, through
// JournalPersister as cpserver journals them: one creation batch and
// one add batch per user.
func recoveryStore(tb testing.TB) (*Environment, *Relation, string) {
	tb.Helper()
	env, rel, names, prefs := parkedFixture(tb)
	store := tb.TempDir()
	ps := make([]Persister, parkedShards)
	for i := range ps {
		j, _, err := journal.Open(filepath.Join(store, journal.ShardDir(i)))
		if err != nil {
			tb.Fatal(err)
		}
		defer j.Close()
		ps[i] = NewJournalPersister(j)
	}
	ctx := context.Background()
	for u, name := range names {
		p := ps[UserShard(name, parkedShards)]
		if err := p.PersistCreateUser(ctx, name); err != nil {
			tb.Fatal(err)
		}
		if err := p.PersistAdd(ctx, name, prefs[u]...); err != nil {
			tb.Fatal(err)
		}
	}
	return env, rel, store
}

// recoverStore recovers a store as cpserver does at start, shard after
// shard: journal.OpenStream hands each scanned batch to the shard's
// Replayer, into a directory with the parked-users resident bound. It
// returns the directory and the recovered record count.
func recoverStore(tb testing.TB, env *Environment, rel *Relation, store string) (*Directory, int) {
	d, err := NewDirectory(env, rel, WithShards(parkedShards), WithMaxResidentUsers(parkedResident))
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for i := 0; i < parkedShards; i++ {
		rp, err := d.ShardReplayer(i)
		if err != nil {
			tb.Fatal(err)
		}
		j, err := journal.OpenStream(nil, filepath.Join(store, journal.ShardDir(i)), rp.Apply)
		if err != nil {
			tb.Fatal(err)
		}
		j.Close()
		n += rp.Records()
	}
	if d.NumUsers() != parkedUsers {
		tb.Fatalf("recovered %d users, want %d", d.NumUsers(), parkedUsers)
	}
	return d, n
}

// BenchmarkStoreRecovery prices recovering the parked-users store from
// disk, the rung under cpserver's startup: per shard, the streamed
// journal scan feeding the shard's Replayer, run sequentially.
func BenchmarkStoreRecovery(b *testing.B) {
	env, rel, store := recoveryStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recoverStore(b, env, rel, store)
	}
}

// Allocation ceilings of the load path on the fixtures above. The parser
// allocates a line's descriptor atoms and their shared values array, and
// nothing else; a load adds one descriptor expansion per preference, the
// profile tree's own cells and one copy of each stored clause's strings,
// and makes about 396 KB in all (about 4,060 allocations). A recovered
// record costs no allocation of its own in the journal scan; replay
// parses, and copies once, each distinct line of a shard, and allocates
// a handle and one parked slice per user.
//
// The recovery bytes budget is about 300 B per record measured, plus
// 10%: the scan's one string per batch, the replay's one table entry
// per distinct line of a shard, and the parked forms; the scan that
// read each file whole, twice, and parked records over line copies
// made about 565 B per record. A park/unpark cycle of a 20-preference
// profile decodes each record with no text to parse, in 173
// allocations; parsing each record made it 206.
const (
	parseAllocBudget     = 3
	loadAllocBudget      = 4450
	loadBytesBudget      = 435000
	recoveryAllocBudget  = 2.5
	recoveryBytesBudget  = 330
	parkCycleAllocBudget = 180
)

// retainedHeapBudget caps the heap one loaded 522-preference profile
// keeps alive once its upload body is garbage: the system and its
// profile tree, about 92 KB, and nothing of the text it was loaded
// from, which alone would add its body's 49 KB or more.
const retainedHeapBudget = 100 << 10

// parkedHeapBudget caps the heap one parked user of the parked-users
// store keeps after recovery: its handle, its share of its shard's
// maps, and its 20 records in binary form.
// The budget is the 985 B measured, plus 10%; records parked as
// 40-byte records over line copies kept 2,251 B.
const parkedHeapBudget = 1083

// TestLoadRetainedHeap loads 64 profiles, the fixture's texts in turn,
// each from a fresh body converted at the call as handleAdd converts
// it, and measures the live heap they hold after a collection. A tree
// that kept a substring of its body would keep the whole body alive.
func TestLoadRetainedHeap(t *testing.T) {
	env, rel, texts := loadFixture(t)
	const profiles = 64
	systems := make([]*System, profiles)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range systems {
		sys, err := NewSystem(env, rel, WithQueryCache(64))
		if err != nil {
			t.Fatal(err)
		}
		body := []byte(texts[i%loadTextCount])
		if err := sys.LoadProfile(string(body)); err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(systems)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / profiles
	t.Logf("retained heap: %d bytes per loaded profile, budget %d", per, retainedHeapBudget)
	if per > retainedHeapBudget {
		t.Errorf("a loaded profile retains %d bytes of heap, budget %d", per, retainedHeapBudget)
	}
}

// TestLoadAllocBudgets pins the load path's allocation counts with
// testing.AllocsPerRun: parsing one line of the fixture (averaged over
// every line), loading a 522-preference text into a fresh system,
// recovering the parked-users store (per recovered record), and one
// park/unpark cycle. AllocsPerRun
// floors its mean to an integer, so one run parses every line, or
// recovers every record, and the total is divided here: the per-line
// and per-record means are compared unfloored. It also pins the bytes
// one load allocates, from runtime.MemStats.TotalAlloc over a load of
// each text, and the bytes one recovery allocates per record.
func TestLoadAllocBudgets(t *testing.T) {
	env, rel, texts := loadFixture(t)
	lines := loadLines(texts)
	parse := testing.AllocsPerRun(2, func() {
		for _, line := range lines {
			if _, err := ParsePreference(line); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(lines))
	t.Logf("ParsePreference: %.3f allocs per line, budget %d", parse, parseAllocBudget)
	if parse > parseAllocBudget {
		t.Errorf("ParsePreference allocates %.3f per line, budget %d", parse, parseAllocBudget)
	}
	next := 0
	load := testing.AllocsPerRun(loadTextCount, func() {
		sys, err := NewSystem(env, rel, WithQueryCache(64))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadProfile(texts[next%loadTextCount]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("LoadProfile: %.0f allocs per 522-preference text, budget %d", load, loadAllocBudget)
	if load > loadAllocBudget {
		t.Errorf("LoadProfile allocates %.0f per text, budget %d", load, loadAllocBudget)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, text := range texts {
		sys, err := NewSystem(env, rel, WithQueryCache(64))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadProfile(text); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	loadBytes := (after.TotalAlloc - before.TotalAlloc) / uint64(len(texts))
	t.Logf("LoadProfile: %d bytes allocated per 522-preference text, budget %d", loadBytes, loadBytesBudget)
	if loadBytes > loadBytesBudget {
		t.Errorf("LoadProfile allocates %d bytes per text, budget %d", loadBytes, loadBytesBudget)
	}
	env, rel, store := recoveryStore(t)
	records := 0
	recovery := testing.AllocsPerRun(2, func() {
		_, records = recoverStore(t, env, rel, store)
	}) / float64(records)
	t.Logf("store recovery: %.3f allocs per recovered record, budget %.1f", recovery, recoveryAllocBudget)
	if recovery > recoveryAllocBudget {
		t.Errorf("store recovery allocates %.3f per record, budget %.1f", recovery, recoveryAllocBudget)
	}
	runtime.ReadMemStats(&before)
	recoverStore(t, env, rel, store)
	runtime.ReadMemStats(&after)
	recoveryBytes := (after.TotalAlloc - before.TotalAlloc) / uint64(records)
	t.Logf("store recovery: %d bytes allocated per recovered record, budget %d", recoveryBytes, recoveryBytesBudget)
	if recoveryBytes > recoveryBytesBudget {
		t.Errorf("store recovery allocates %d bytes per record, budget %d", recoveryBytes, recoveryBytesBudget)
	}
	_, users := parkedCycleFixture(t)
	next = 0
	cycle := testing.AllocsPerRun(100, func() {
		if users[next%2].NumPreferences() == 0 {
			t.Fatal("parked profile rebuilt empty")
		}
		next++
	})
	t.Logf("park/unpark cycle: %.0f allocs, budget %d", cycle, parkCycleAllocBudget)
	if cycle > parkCycleAllocBudget {
		t.Errorf("a park/unpark cycle allocates %.0f, budget %d", cycle, parkCycleAllocBudget)
	}
}

// TestParkedRetainedHeap measures the live heap one parked user keeps
// after the parked-users store is recovered and a collection runs: its
// handle, its share of the shard maps, and its parked form.
func TestParkedRetainedHeap(t *testing.T) {
	env, rel, store := recoveryStore(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, _ := recoverStore(t, env, rel, store)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / parkedUsers
	t.Logf("retained heap: %d bytes per parked user, budget %d", per, parkedHeapBudget)
	if per > parkedHeapBudget {
		t.Errorf("a parked user retains %d bytes of heap, budget %d", per, parkedHeapBudget)
	}
}
