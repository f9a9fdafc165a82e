package querytree

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/dataset"
	"contextpref/internal/distance"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/relation"
)

// The model test drives a cache and a reference model with the same
// operations and compares them after every one. The model is a map from
// state key to the stored answer, plus the keys in insertion order: the
// semantics the cache promises, with none of its layout.

// modelEntry is one answer the model holds.
type modelEntry struct {
	ranking    []relation.ScoredTuple
	resolution query.Resolution
}

// cacheModel is the reference model of a Cache.
type cacheModel struct {
	capacity int
	entries  map[string]modelEntry
	order    []string // keys, oldest first
	stats    Stats
}

func (m *cacheModel) put(s ctxmodel.State, ranking []relation.ScoredTuple, res query.Resolution) {
	k := s.Key()
	if _, ok := m.entries[k]; !ok {
		m.order = append(m.order, k)
		m.stats.Puts++
	}
	m.entries[k] = modelEntry{append([]relation.ScoredTuple(nil), ranking...), res}
	if m.capacity > 0 && len(m.entries) > m.capacity {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
		m.stats.Evictions++
	}
}

func (m *cacheModel) get(s ctxmodel.State, k int) ([]relation.ScoredTuple, query.Resolution, bool) {
	e, ok := m.entries[s.Key()]
	if !ok {
		m.stats.Misses++
		return nil, query.Resolution{}, false
	}
	m.stats.Hits++
	return referenceTop(e.ranking, k), e.resolution, true
}

func (m *cacheModel) invalidateState(s ctxmodel.State) {
	k := s.Key()
	if _, ok := m.entries[k]; !ok {
		return
	}
	delete(m.entries, k)
	for i, o := range m.order {
		if o == k {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
}

func (m *cacheModel) invalidate() {
	m.entries = map[string]modelEntry{}
	m.order = nil
}

// referenceTop is relation.ResultSet.Top's cut, written out: the first
// k tuples and every later one tied with the k-th score.
func referenceTop(ranking []relation.ScoredTuple, k int) []relation.ScoredTuple {
	if k <= 0 {
		return ranking
	}
	var out []relation.ScoredTuple
	for i, t := range ranking {
		if i >= k && t.Score != ranking[k-1].Score {
			break
		}
		out = append(out, t)
	}
	return out
}

// modelFixture is what every model run shares: the real environment, a
// pool of its states that share many trie prefixes, a relation, and a
// query engine over an empty profile, whose only use is to bind a cache
// to the relation.
type modelFixture struct {
	env    *ctxmodel.Environment
	states []ctxmodel.State
	rel    *relation.Relation
	inner  *query.Engine
}

func newModelFixture(tb testing.TB) *modelFixture {
	tb.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		tb.Fatal(err)
	}
	drawn, err := dataset.RandomQueries(env, 40, 2007, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	seen := map[string]bool{}
	var states []ctxmodel.State
	for _, s := range drawn {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			states = append(states, s)
		}
	}
	rel, err := dataset.POIs(env, 30, 2007)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := profiletree.New(env, nil)
	if err != nil {
		tb.Fatal(err)
	}
	inner, err := query.NewEngine(tree, rel, distance.Jaccard{}, relation.CombineMax)
	if err != nil {
		tb.Fatal(err)
	}
	return &modelFixture{env: env, states: states, rel: rel, inner: inner}
}

// ranking draws a ranked answer over the relation, best first, with
// scores from a small set so that ties straddle the cuts.
func (fx *modelFixture) ranking(r *rand.Rand) []relation.ScoredTuple {
	n := r.Intn(13)
	idxs := r.Perm(fx.rel.Len())[:n]
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(1+r.Intn(4)) / 4
	}
	rs := relation.NewResultSet(fx.rel)
	for i, idx := range idxs {
		rs.Add(idx, scores[i])
	}
	return rs.Ranked(relation.CombineMax)
}

// runModel decodes ops into operations on a cache of the capacity and
// on the model, and fails at the first divergence. Each op is two
// bytes: the operation and its state. A Put's answer is drawn from a
// generator seeded by the op's position.
func (fx *modelFixture) runModel(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	c, err := New(fx.env, nil, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(fx.inner, c); err != nil {
		t.Fatal(err)
	}
	m := &cacheModel{capacity: capacity, entries: map[string]modelEntry{}}
	cuts := []int{0, 1, 3, 10}
	for i := 0; i+1 < len(ops); i += 2 {
		op, s := ops[i], fx.states[int(ops[i+1])%len(fx.states)]
		var what string
		switch {
		case op%16 < 7:
			r := rand.New(rand.NewSource(int64(i)))
			ranking := fx.ranking(r)
			res := query.Resolution{Found: true, Exact: op%2 == 0, Accesses: i}
			if r.Intn(2) == 0 {
				res.Query = s.Clone() // the entry shares the resolution's copy
			}
			what = "Put " + s.String()
			if err := c.Put(s, ranking, res); err != nil {
				t.Fatalf("op %d: %s: %v", i/2, what, err)
			}
			m.put(s, ranking, res)
		case op%16 < 13:
			k := cuts[int(op>>4)%len(cuts)]
			what = "GetTop " + s.String()
			got, gotRes, ok, err := c.GetTop(s, k)
			if err != nil {
				t.Fatalf("op %d: %s: %v", i/2, what, err)
			}
			want, wantRes, wantOK := m.get(s, k)
			if ok != wantOK {
				t.Fatalf("op %d: %s hit = %v, model %v", i/2, what, ok, wantOK)
			}
			if !sameTuples(got, want) || !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("op %d: %s top %d = %v %+v, model %v %+v", i/2, what, k, got, gotRes, want, wantRes)
			}
			if cap(got) != len(got) {
				t.Fatalf("op %d: %s returned spare capacity %d > %d", i/2, what, cap(got), len(got))
			}
		case op%16 < 15:
			what = "InvalidateState " + s.String()
			if err := c.InvalidateState(s); err != nil {
				t.Fatalf("op %d: %s: %v", i/2, what, err)
			}
			m.invalidateState(s)
		default:
			what = "Invalidate"
			c.Invalidate()
			m.invalidate()
		}
		fx.compare(t, c, m, i/2, what)
	}
}

// compare checks everything the cache holds against the model without
// touching the hit and miss counters.
func (fx *modelFixture) compare(t *testing.T, c *Cache, m *cacheModel, op int, what string) {
	t.Helper()
	for _, s := range fx.states {
		e := c.find(s)
		want, ok := m.entries[s.Key()]
		if (e != nil) != ok {
			t.Fatalf("op %d (%s): %s cached = %v, model %v", op, what, s, e != nil, ok)
		}
		if e == nil {
			continue
		}
		if !e.state.Equal(s) || len(e.idx) != len(want.ranking) || len(e.scores) != len(want.ranking) {
			t.Fatalf("op %d (%s): %s entry holds state %v and %d tuples, model %d", op, what, s, e.state, len(e.idx), len(want.ranking))
		}
		for i, w := range want.ranking {
			if int(e.idx[i]) != w.Index || e.scores[i] != w.Score {
				t.Fatalf("op %d (%s): %s tuple %d = (%d, %v), model (%d, %v)", op, what, s, i, e.idx[i], e.scores[i], w.Index, w.Score)
			}
		}
	}
	var order, back []string
	for e := c.oldest; e != nil; e = e.next {
		order = append(order, e.state.Key())
	}
	for e := c.newest; e != nil; e = e.prev {
		back = append([]string{e.state.Key()}, back...)
	}
	if !slices.Equal(order, m.order) || !slices.Equal(back, m.order) {
		t.Fatalf("op %d (%s): insertion order %v (backward %v), model %v", op, what, order, back, m.order)
	}
	got := c.Stats()
	want := m.stats
	want.Entries = len(m.entries)
	want.InternalCells = freshCells(c.order, m.order)
	if got != want {
		t.Fatalf("op %d (%s): Stats = %+v, model %+v", op, what, got, want)
	}
}

// freshCells counts the cells of a trie built fresh from the states:
// one per distinct path prefix, in the cache's level order.
func freshCells(order []int, keys []string) int {
	prefixes := map[string]bool{}
	for _, k := range keys {
		s := ctxmodel.StateFromKey(k)
		var b strings.Builder
		for _, p := range order {
			b.WriteString(s[p])
			b.WriteByte(0)
			prefixes[b.String()] = true
		}
	}
	return len(prefixes)
}

func sameTuples(a, b []relation.ScoredTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Score != b[i].Score || !reflect.DeepEqual(a[i].Tuple, b[i].Tuple) {
			return false
		}
	}
	return true
}

// modelCapacities are the capacities the model test runs at: unbounded,
// and bounds small enough that most Puts evict.
var modelCapacities = []int{0, 1, 2, 8}

// TestCacheMatchesModel runs random sequences of Put (new states and
// overwrites), GetTop, InvalidateState and Invalidate over states of the
// real environment, and after every operation compares answers,
// resolutions, the eviction order, the counters and the trie's cell
// count with the reference model.
func TestCacheMatchesModel(t *testing.T) {
	fx := newModelFixture(t)
	for _, capacity := range modelCapacities {
		for seed := int64(1); seed <= 8; seed++ {
			ops := make([]byte, 1200)
			rand.New(rand.NewSource(seed)).Read(ops)
			fx.runModel(t, capacity, ops)
		}
	}
}

// FuzzCacheMatchesModel is TestCacheMatchesModel over fuzzed operation
// sequences; the first byte picks the capacity.
func FuzzCacheMatchesModel(f *testing.F) {
	fx := newModelFixture(f)
	// Put s1, Put s2, InvalidateState s1, Put s1, Put s3 at capacity 2:
	// the re-cached s1 is the newest entry, so s2 is the one evicted.
	f.Add([]byte{2, 0, 1, 0, 2, 13, 1, 0, 1, 0, 3})
	// Overwrites, cuts through ties, and a full invalidation.
	f.Add([]byte{3, 0, 5, 2, 5, 7, 5, 0x17, 5, 0x27, 5, 0x37, 5, 15, 0, 7, 5})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 14, 2, 7, 1, 13, 1, 0, 2, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4000 {
			return
		}
		fx.runModel(t, modelCapacities[int(data[0])%len(modelCapacities)], data[1:])
	})
}
