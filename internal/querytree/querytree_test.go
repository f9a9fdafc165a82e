package querytree

import (
	"runtime"
	"testing"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/dataset"
	"contextpref/internal/distance"
	"contextpref/internal/preference"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/relation"
)

func env(t *testing.T) *ctxmodel.Environment {
	t.Helper()
	e, err := ctxmodel.ReferenceEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func st(t *testing.T, e *ctxmodel.Environment, vs ...string) ctxmodel.State {
	t.Helper()
	s, err := e.NewState(vs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func someTuples(score float64) []relation.ScoredTuple {
	return []relation.ScoredTuple{{Index: 0, Score: score}}
}

func TestNewValidation(t *testing.T) {
	e := env(t)
	if _, err := New(nil, nil, 0); err == nil {
		t.Error("nil environment should fail")
	}
	if _, err := New(e, []int{0}, 0); err == nil {
		t.Error("short order should fail")
	}
	if _, err := New(e, []int{0, 0, 1}, 0); err == nil {
		t.Error("non-permutation should fail")
	}
	if _, err := New(e, nil, -1); err == nil {
		t.Error("negative capacity should fail")
	}
	c, err := New(e, []int{2, 1, 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Env() != e {
		t.Error("Env round-trip failed")
	}
}

func TestGetPutInvalidate(t *testing.T) {
	e := env(t)
	c, _ := New(e, nil, 0)
	s1 := st(t, e, "Plaka", "warm", "friends")
	s2 := st(t, e, "Athens", "good", "all")

	// Miss on empty cache.
	if _, _, ok, err := c.Get(s1); ok || err != nil {
		t.Fatalf("Get on empty = %v, %v", ok, err)
	}
	// Put and hit.
	if err := c.Put(s1, someTuples(0.8), query.Resolution{}); err != nil {
		t.Fatal(err)
	}
	tuples, _, ok, err := c.Get(s1)
	if err != nil || !ok || len(tuples) != 1 || tuples[0].Score != 0.8 {
		t.Fatalf("Get after Put = %v, %v, %v", tuples, ok, err)
	}
	// Sibling state still misses (exact-state semantics).
	if _, _, ok, _ := c.Get(s2); ok {
		t.Error("cover state should not hit an exact-state cache")
	}
	// Overwrite.
	if err := c.Put(s1, someTuples(0.5), query.Resolution{}); err != nil {
		t.Fatal(err)
	}
	tuples, _, _, _ = c.Get(s1)
	if tuples[0].Score != 0.5 {
		t.Errorf("overwrite failed: %v", tuples)
	}
	// Stats.
	stats := c.Stats()
	if stats.Hits != 2 || stats.Misses != 2 || stats.Puts != 1 || stats.Entries != 1 {
		t.Errorf("Stats = %+v", stats)
	}
	if stats.InternalCells != 3 {
		t.Errorf("InternalCells = %d, want 3 (one path)", stats.InternalCells)
	}
	// InvalidateState.
	if err := c.InvalidateState(s1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := c.Get(s1); ok {
		t.Error("InvalidateState did not evict")
	}
	// InvalidateState of an absent state is a no-op.
	if err := c.InvalidateState(s2); err != nil {
		t.Fatal(err)
	}
	// Full invalidation.
	c.Put(s1, someTuples(0.8), query.Resolution{})
	c.Put(s2, someTuples(0.6), query.Resolution{})
	c.Invalidate()
	if got := c.Stats().Entries; got != 0 {
		t.Errorf("Entries after Invalidate = %d", got)
	}
	if got := c.Stats().InternalCells; got != 0 {
		t.Errorf("InternalCells after Invalidate = %d", got)
	}
	// Validation errors.
	if _, _, _, err := c.Get(ctxmodel.State{"bad"}); err == nil {
		t.Error("Get with invalid state should fail")
	}
	if err := c.Put(ctxmodel.State{"bad"}, nil, query.Resolution{}); err == nil {
		t.Error("Put with invalid state should fail")
	}
	if err := c.InvalidateState(ctxmodel.State{"bad"}); err == nil {
		t.Error("InvalidateState with invalid state should fail")
	}
}

func TestEviction(t *testing.T) {
	e := env(t)
	c, _ := New(e, nil, 2)
	s1 := st(t, e, "Plaka", "warm", "friends")
	s2 := st(t, e, "Kifisia", "warm", "friends")
	s3 := st(t, e, "Perama", "cold", "alone")
	c.Put(s1, someTuples(0.1), query.Resolution{})
	c.Put(s2, someTuples(0.2), query.Resolution{})
	c.Put(s3, someTuples(0.3), query.Resolution{})
	if _, _, ok, _ := c.Get(s1); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, _, ok, _ := c.Get(s2); !ok {
		t.Error("second entry should survive")
	}
	if _, _, ok, _ := c.Get(s3); !ok {
		t.Error("newest entry should survive")
	}
	stats := c.Stats()
	if stats.Evictions != 1 || stats.Entries != 2 {
		t.Errorf("Stats = %+v", stats)
	}
	// Overwriting does not grow the FIFO.
	c.Put(s2, someTuples(0.9), query.Resolution{})
	c.Put(s3, someTuples(0.9), query.Resolution{})
	if got := c.Stats().Entries; got != 2 {
		t.Errorf("Entries after overwrites = %d", got)
	}
}

// TestInvalidateStateKeepsEvictionOrder pins that a state dropped by
// InvalidateState and cached again holds one place in the eviction
// order, the place of its new insertion, and that the cycle retains
// nothing.
func TestInvalidateStateKeepsEvictionOrder(t *testing.T) {
	e := env(t)
	s1 := st(t, e, "Plaka", "warm", "friends")
	s2 := st(t, e, "Kifisia", "warm", "friends")
	s3 := st(t, e, "Perama", "cold", "alone")
	c, _ := New(e, nil, 2)
	c.Put(s1, someTuples(0.1), query.Resolution{})
	c.Put(s2, someTuples(0.2), query.Resolution{})
	c.InvalidateState(s1)
	c.Put(s1, someTuples(0.3), query.Resolution{})
	c.Put(s3, someTuples(0.4), query.Resolution{})
	for _, tc := range []struct {
		s    ctxmodel.State
		want bool
	}{{s1, true}, {s2, false}, {s3, true}} {
		if _, _, ok, _ := c.Get(tc.s); ok != tc.want {
			t.Errorf("after re-caching s1, Get(%v) hit = %v, want %v (s2 is the oldest entry)", tc.s, ok, tc.want)
		}
	}

	c, _ = New(e, nil, 64)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100000; i++ {
		c.InvalidateState(s1)
		c.Put(s1, someTuples(0.5), query.Resolution{})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 64<<10 {
		t.Errorf("100,000 InvalidateState+Put cycles of one state left %d bytes of heap", grown)
	}
	if st := c.Stats(); st.Entries != 1 || st.InternalCells != 3 {
		t.Errorf("Stats after the cycles = %+v, want 1 entry on 3 cells", st)
	}
}

// TestCellsBoundedByCapacity puts every state of cold-rank's
// 4,096-state pool and checks that the trie never holds more cells
// than capacity × levels: removing an entry prunes its path.
func TestCellsBoundedByCapacity(t *testing.T) {
	e, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dataset.RandomQueries(e, 4096, 2007+1<<22, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1, 8, 64} {
		c, _ := New(e, nil, capacity)
		worst := 0
		for _, s := range pool {
			if err := c.Put(s, nil, query.Resolution{Query: s}); err != nil {
				t.Fatal(err)
			}
			worst = max(worst, c.Stats().InternalCells)
		}
		st := c.Stats()
		if bound := capacity * e.NumParams(); worst > bound {
			t.Errorf("capacity %d: the trie reached %d cells, bound %d", capacity, worst, bound)
		}
		if st.Entries != capacity {
			t.Errorf("capacity %d: %d entries", capacity, st.Entries)
		}
	}
}

// TestTopPrefixBuiltOnFirstHit pins how a hit's answer is built: cut
// as ResultSet.Top cuts, ties included, from a prefix built on the
// first hit and reused by every hit that asks for no longer a cut;
// rebuilt for a longer cut; dropped by an overwrite.
func TestTopPrefixBuiltOnFirstHit(t *testing.T) {
	e, inner := buildEngine(t)
	c, _ := New(e, nil, 0)
	if _, err := NewEngine(inner, c); err != nil {
		t.Fatal(err)
	}
	rel := inner.Relation()
	s := st(t, e, "Plaka", "warm", "friends")
	ranked := []relation.ScoredTuple{{Index: 1, Score: 0.9}, {Index: 0, Score: 0.5}, {Index: 1, Score: 0.5}, {Index: 0, Score: 0.2}}
	if err := c.Put(s, ranked, query.Resolution{Query: s, Found: true}); err != nil {
		t.Fatal(err)
	}
	top2, _, _, _ := c.GetTop(s, 2)
	if len(top2) != 3 || cap(top2) != 3 {
		t.Fatalf("top 2 = %v (cap %d), want 3 tuples through the tie", top2, cap(top2))
	}
	for i, tu := range top2 {
		if tu.Index != ranked[i].Index || tu.Score != ranked[i].Score || tu.Tuple[0] != rel.Tuple(tu.Index)[0] {
			t.Errorf("top 2 tuple %d = %+v, want %+v with the relation's row", i, tu, ranked[i])
		}
	}
	top1, _, _, _ := c.GetTop(s, 1)
	again, _, _, _ := c.GetTop(s, 2)
	if len(top1) != 1 || &top1[0] != &top2[0] || &again[0] != &top2[0] {
		t.Error("a cut no longer than the built prefix did not reuse it")
	}
	all, _, _, _ := c.GetTop(s, 0)
	if len(all) != 4 || &all[0] == &top2[0] {
		t.Errorf("a longer cut returned %d tuples from the old prefix", len(all))
	}
	if err := c.Put(s, ranked[:1], query.Resolution{Query: s, Found: true}); err != nil {
		t.Fatal(err)
	}
	if got, _, _, _ := c.GetTop(s, 2); len(got) != 1 {
		t.Errorf("after an overwrite, top 2 = %v, want the new one-tuple ranking", got)
	}
	if err := c.Put(s, []relation.ScoredTuple{{Index: rel.Len()}}, query.Resolution{}); err == nil {
		t.Error("Put of a tuple index outside the relation should fail")
	}
}

func buildEngine(t *testing.T) (*ctxmodel.Environment, *query.Engine) {
	t.Helper()
	e := env(t)
	tr, _ := profiletree.New(e, nil)
	err := tr.Insert(preference.MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka")),
		preference.Clause{Attr: "type", Op: relation.OpEq, Val: relation.S("monument")}, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relation.NewSchema("poi",
		relation.Column{Name: "name", Kind: relation.KindString},
		relation.Column{Name: "type", Kind: relation.KindString},
	)
	rel := relation.New(schema)
	rel.Insert(relation.S("Acropolis"), relation.S("monument"))
	rel.Insert(relation.S("Benaki"), relation.S("museum"))
	en, err := query.NewEngine(tr, rel, distance.Hierarchy{}, relation.CombineMax)
	if err != nil {
		t.Fatal(err)
	}
	return e, en
}

func TestCachedEngine(t *testing.T) {
	e, inner := buildEngine(t)
	cache, _ := New(e, nil, 0)
	if _, err := NewEngine(nil, cache); err == nil {
		t.Error("nil inner should fail")
	}
	if _, err := NewEngine(inner, nil); err == nil {
		t.Error("nil cache should fail")
	}
	en, err := NewEngine(inner, cache)
	if err != nil {
		t.Fatal(err)
	}
	if en.Cache() != cache {
		t.Error("Cache round-trip failed")
	}
	cur := st(t, e, "Plaka", "warm", "friends")

	// First execution: miss, computed, cached.
	res, hit, err := en.Execute(query.Contextual{}, cur)
	if err != nil || hit {
		t.Fatalf("first Execute hit=%v err=%v", hit, err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].Tuple[0].Str() != "Acropolis" {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	// Second execution: cache hit, same answer.
	res2, hit, err := en.Execute(query.Contextual{}, cur)
	if err != nil || !hit {
		t.Fatalf("second Execute hit=%v err=%v", hit, err)
	}
	if len(res2.Tuples) != 1 || res2.Tuples[0].Tuple[0].Str() != "Acropolis" {
		t.Fatalf("cached tuples = %v", res2.Tuples)
	}
	if cache.Stats().Hits != 1 || cache.Stats().Puts != 1 {
		t.Errorf("cache stats = %+v", cache.Stats())
	}
	// Queries with selections bypass the cache.
	sel := query.Contextual{Selection: []relation.Predicate{{Col: "type", Op: relation.OpEq, Val: relation.S("monument")}}}
	_, hit, err = en.Execute(sel, cur)
	if err != nil || hit {
		t.Fatalf("selection query must bypass cache: hit=%v err=%v", hit, err)
	}
	// Multi-state queries bypass the cache.
	multi := query.Contextual{Ecod: ctxmodel.ExtendedDescriptor{
		ctxmodel.MustDescriptor(ctxmodel.In("location", "Plaka", "Kifisia")),
	}}
	_, hit, err = en.Execute(multi, cur)
	if err != nil || hit {
		t.Fatalf("multi-state query must bypass cache: hit=%v err=%v", hit, err)
	}
	// Non-contextual fallbacks are not cached.
	far := st(t, e, "Perama", "cold", "alone")
	_, hit, err = en.Execute(query.Contextual{}, far)
	if err != nil || hit {
		t.Fatal("fallback should not hit")
	}
	_, hit, err = en.Execute(query.Contextual{}, far)
	if err != nil || hit {
		t.Error("fallback result must not be cached")
	}
	// Invalid inputs propagate.
	if _, _, err := en.Execute(query.Contextual{}, ctxmodel.State{"bad"}); err == nil {
		t.Error("invalid state should fail")
	}
}
