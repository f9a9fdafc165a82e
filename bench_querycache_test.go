package contextpref

// The query-cache budgets, on cold-rank's shape: 16 users × 522
// preferences, 500 POIs with the `type` index that cpserver builds, a
// 64-entry query cache per user, and top-10 queries over the
// 4,096-state mixed-level pool. TestQueryCacheRetainedHeap pins the
// heap a cached answer keeps, TestQueryCacheHitAllocs what a cached
// hit allocates, and TestUncoveredQueryBytes what a query no stored
// state covers allocates, so a regression fails tier-1 rather than
// waiting for the next benchmark run.

import (
	"math/rand"
	"runtime"
	"testing"

	"contextpref/internal/dataset"
)

const (
	// coldRankUsers and coldRankPOIs size cold-rank's fixture.
	coldRankUsers = 16
	coldRankPOIs  = 500
	// coldRankPoolSeedOffset is added to the seed of cold-rank's state
	// pool, as cpbench draws it.
	coldRankPoolSeedOffset = 1 << 22
)

// Budgets of the query cache on the fixture below, each the measured
// value plus 10% unless noted. A cached answer keeps its entry and its
// resolution, its ranking as tuple indexes and scores (12 bytes per
// tuple, about 60 tuples on average) and its share of the trie's
// cells: 1,078 bytes in all. A steady-state top-10 hit allocates its
// Result, the one-element resolution list and the query state's copy:
// 4 allocations and 248 bytes, the budget exactly. An uncovered top-10
// query allocates its resolution and the ten tuples it returns, not one
// per tuple of the relation: 736 bytes.
const (
	cachedEntryBytesBudget = 1190
	cacheHitAllocBudget    = 4
	cacheHitBytesBudget    = 248
	uncoveredBytesBudget   = 810
)

// coldRankFixture returns cold-rank's relation, its users' profiles
// (seeds benchSeed+u) and its state pool.
func coldRankFixture(tb testing.TB) (*Environment, *Relation, [][]Preference, []State) {
	tb.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := dataset.POIs(env, coldRankPOIs, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	if err := rel.CreateIndex("type"); err != nil {
		tb.Fatal(err)
	}
	profiles := make([][]Preference, coldRankUsers)
	for u := range profiles {
		profiles[u], err = dataset.ProfileSpec{Env: env, NumPrefs: dataset.RealPrefCount, Seed: benchSeed + int64(u),
			Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
		if err != nil {
			tb.Fatal(err)
		}
	}
	pool, err := dataset.RandomQueries(env, 4096, benchSeed+coldRankPoolSeedOffset, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	return env, rel, profiles, pool
}

// coldRankSystem returns a system with cold-rank's 64-entry query cache
// and the profile loaded.
func coldRankSystem(tb testing.TB, env *Environment, rel *Relation, profile []Preference) *System {
	tb.Helper()
	sys, err := NewSystem(env, rel, WithQueryCache(64))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.AddPreferences(profile...); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestQueryCacheRetainedHeap runs 40,000 top-10 queries drawn uniformly
// over the users and the pool, and measures the live heap the filled
// caches hold after a collection, per cached entry. A cache that kept
// the path of every state it ever held, or 40 bytes per cached tuple,
// would hold several times the budget.
func TestQueryCacheRetainedHeap(t *testing.T) {
	env, rel, profiles, pool := coldRankFixture(t)
	systems := make([]*System, len(profiles))
	for u, profile := range profiles {
		systems[u] = coldRankSystem(t, env, rel, profile)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := rand.New(rand.NewSource(benchSeed))
	q := Query{TopK: 10}
	for i := 0; i < 40000; i++ {
		if _, _, err := systems[r.Intn(len(systems))].QueryCached(q, pool[r.Intn(len(pool))]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	entries := 0
	for _, sys := range systems {
		entries += sys.CacheStats().Entries
	}
	runtime.KeepAlive(systems)
	if entries != 64*len(systems) {
		t.Fatalf("%d cached entries, want every cache full (%d)", entries, 64*len(systems))
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(entries)
	t.Logf("retained heap: %d bytes per cached entry over %d entries, budget %d", per, entries, cachedEntryBytesBudget)
	if per > cachedEntryBytesBudget {
		t.Errorf("a cached entry retains %d bytes of heap, budget %d", per, cachedEntryBytesBudget)
	}
}

// TestQueryCacheHitAllocs pins what a steady-state top-10 hit through
// System.QueryCached allocates: allocations by testing.AllocsPerRun,
// bytes from runtime.MemStats.TotalAlloc.
func TestQueryCacheHitAllocs(t *testing.T) {
	env, rel, profiles, _ := coldRankFixture(t)
	sys := coldRankSystem(t, env, rel, profiles[0])
	states, err := dataset.QueriesFromPrefs(env, profiles[0], 1, benchSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{TopK: 10}
	hit := func() {
		if _, cached, err := sys.QueryCached(q, states[0]); err != nil || !cached {
			t.Fatalf("QueryCached = cached %v, %v; want a hit", cached, err)
		}
	}
	if _, _, err := sys.QueryCached(q, states[0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, hit)
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("cached top-10 hit: %.0f allocs and %d bytes, budgets %d and %d", allocs, bytes, cacheHitAllocBudget, cacheHitBytesBudget)
	if allocs > cacheHitAllocBudget {
		t.Errorf("a cached hit allocates %.0f times, budget %d", allocs, cacheHitAllocBudget)
	}
	if bytes > cacheHitBytesBudget {
		t.Errorf("a cached hit allocates %d bytes, budget %d", bytes, cacheHitBytesBudget)
	}
}

// TestUncoveredQueryBytes pins the bytes a top-10 query allocates when
// no stored state covers its state, with the query cache on: the
// non-contextual fallback returns ten tuples and must build no more.
// With the seed-benchSeed profile, 1,452 of the pool's states are
// uncovered.
func TestUncoveredQueryBytes(t *testing.T) {
	env, rel, profiles, pool := coldRankFixture(t)
	sys := coldRankSystem(t, env, rel, profiles[0])
	q := Query{TopK: 10}
	var uncovered []State
	for _, s := range pool {
		res, err := sys.Query(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Contextual {
			uncovered = append(uncovered, s)
		}
	}
	if len(uncovered) == 0 {
		t.Fatal("no state of the pool is uncovered")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range uncovered {
		if _, err := sys.Query(q, s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(uncovered))
	t.Logf("uncovered top-10 query: %d bytes over %d states, budget %d", per, len(uncovered), uncoveredBytesBudget)
	if per > uncoveredBytesBudget {
		t.Errorf("an uncovered top-10 query allocates %d bytes, budget %d", per, uncoveredBytesBudget)
	}
}
