// Package querytree implements the context query tree announced in the
// contributions and summary of "Adding Context to Preferences"
// (ICDE 2007): an index that caches the results of contextual queries
// based on their context. (The paper's dedicated section is not part of
// the available text; this is the natural construction implied by the
// profile tree: the same trie shape — one level per context parameter —
// with leaves holding ranked result sets instead of preference entries.)
//
// The cache stores results per single context state. Queries whose
// extended descriptor expands to several states bypass it, because
// their answer is a combination across states. The cache must be
// invalidated when the profile changes, since cached rankings embed
// preference scores.
//
// The capacity bounds the cache's memory, not only its entries. The
// trie is the only index: removing an entry, by eviction or
// InvalidateState, prunes the cells that led only to it, so a cache of
// capacity C over n parameters holds at most C entries and C×n cells.
// Only a last-level cell holds an entry, and an entry keeps its ranking
// as tuple indexes and scores, 12 bytes per tuple; the top-k slice a hit
// returns is built into the entry on its first hit.
package querytree

import (
	"context"
	"fmt"
	"math"
	"slices"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/query"
	"contextpref/internal/relation"
	"contextpref/internal/tracing"
)

// Stats reports cache effectiveness counters.
type Stats struct {
	// Hits counts Get calls answered from the cache.
	Hits int
	// Misses counts Get calls that found nothing.
	Misses int
	// Puts counts results stored.
	Puts int
	// Evictions counts entries dropped to respect the capacity.
	Evictions int
	// Entries is the number of currently cached states.
	Entries int
	// InternalCells is the number of [key, pointer] cells of the trie.
	InternalCells int
}

// node is one node of the trie: its cells, in insertion order.
type node struct {
	cells []cell
}

// cell is one [key, pointer] cell of a node. key is the hierarchy's own
// copy of the value (hierarchy.Canonical), so the trie keeps no
// reference to the request a state came from. A cell of the last level
// points to its state's entry and has no child; every other cell has a
// child and no entry. A cell left with neither is removed.
//
// A *cell points into its node's cells, so it is valid only until that
// node's next mutation: appending or deleting a cell may move them.
type cell struct {
	key   string
	child *node
	entry *entry
}

// find linearly scans the node's cells for a key, returning its
// position, or -1.
func (nd *node) find(key string) int {
	for i := range nd.cells {
		if nd.cells[i].key == key {
			return i
		}
	}
	return -1
}

// entry is one cached state. It keeps the full ranking as parallel
// tuple-index and score arrays, and top, the top-k slice built for the
// longest cut a hit has asked for since the ranking was stored. prev
// and next link the entries in insertion order, oldest first.
type entry struct {
	// state is the cached state: resolution.Query when that equals it,
	// so the state is held once.
	state      ctxmodel.State
	resolution query.Resolution
	idx        []int32
	scores     []float64
	top        []relation.ScoredTuple
	prev, next *entry
}

// topLen returns how many tuples of a ranking with these scores a
// top-k answer keeps: k, extended through ties with the k-th score
// (the semantics of relation.ResultSet.Top), or all of them when
// k ≤ 0.
func topLen(scores []float64, k int) int {
	if k <= 0 || len(scores) <= k {
		return len(scores)
	}
	cut := k
	for cut < len(scores) && scores[cut] == scores[k-1] {
		cut++
	}
	return cut
}

// build makes top the ranking's first n tuples, taking each from rel
// (a nil rel leaves Tuple nil).
//
// Building writes to the entry, so a hit needs the exclusion a Put
// needs. SafeSystem provides it today by taking its exclusive lock for
// every query while a cache is configured; a read path that serves hits
// under a shared lock must build under a lock of the cache's own.
func (e *entry) build(n int, rel *relation.Relation) {
	top := make([]relation.ScoredTuple, n)
	for i := range top {
		idx := int(e.idx[i])
		top[i] = relation.ScoredTuple{Index: idx, Score: e.scores[i]}
		if rel != nil {
			top[i].Tuple = rel.Tuple(idx)
		}
	}
	e.top = top
}

// Cache is a context query tree.
type Cache struct {
	env   *ctxmodel.Environment
	order []int
	// rel is the relation of the engine the cache serves (set by
	// NewEngine); a hit takes each tuple of its answer from it.
	rel      *relation.Relation
	root     node
	capacity int
	entries  int
	// oldest and newest are the ends of the insertion-order list.
	oldest, newest *entry
	stats          Stats
}

// New creates a cache over the environment. order assigns parameters to
// trie levels (nil = identity, mirroring profiletree.New). capacity
// bounds the number of cached states, and with them the trie's cells:
// at most capacity × NumParams. 0 means unbounded.
func New(env *ctxmodel.Environment, order []int, capacity int) (*Cache, error) {
	if env == nil {
		return nil, fmt.Errorf("querytree: nil environment")
	}
	n := env.NumParams()
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("querytree: order has %d entries, environment has %d parameters", len(order), n)
	}
	seen := make([]bool, n)
	for _, p := range order {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("querytree: order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[p] = true
	}
	if capacity < 0 {
		return nil, fmt.Errorf("querytree: negative capacity %d", capacity)
	}
	return &Cache{
		env:      env,
		order:    append([]int(nil), order...),
		capacity: capacity,
	}, nil
}

// Env returns the cache's environment.
func (c *Cache) Env() *ctxmodel.Environment { return c.env }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Entries = c.entries
	s.InternalCells = countCells(&c.root)
	return s
}

func countCells(nd *node) int {
	total := len(nd.cells)
	for i := range nd.cells {
		if ch := nd.cells[i].child; ch != nil {
			total += countCells(ch)
		}
	}
	return total
}

// find descends the exact path of a state, returning its entry, or nil
// when the state is not cached.
func (c *Cache) find(s ctxmodel.State) *entry {
	nd := &c.root
	var e *entry
	for _, param := range c.order {
		i := nd.find(s[param])
		if i < 0 {
			return nil
		}
		nd, e = nd.cells[i].child, nd.cells[i].entry
	}
	return e
}

// Get returns the full cached ranking and its resolution for the exact
// context state: GetTop with no cut.
//
//cpvet:hotpath allocs=0 the trie descent reads the state in level order in place; a steady-state hit returns the full ranking its entry built on the first hit
func (c *Cache) Get(s ctxmodel.State) ([]relation.ScoredTuple, query.Resolution, bool, error) {
	return c.GetTop(s, 0)
}

// GetTop returns the cached ranking for the exact context state, cut to
// its top k with ties extended (k ≤ 0: the full ranking), and its
// resolution. The cut is the prefix the entry's first hit built, reused
// by every hit that asks for no longer a cut. Each tuple is taken from
// the relation of the engine the cache serves; a cache that serves
// none returns a nil Tuple. The returned slice has no spare capacity,
// so an append copies it.
//
//cpvet:hotpath allocs=0 the trie descent reads the state in level order in place; a steady-state hit returns the prefix its entry built on the first hit and never copies the cached tuples
func (c *Cache) GetTop(s ctxmodel.State, k int) ([]relation.ScoredTuple, query.Resolution, bool, error) {
	if err := c.env.Validate(s); err != nil {
		return nil, query.Resolution{}, false, err
	}
	e := c.find(s)
	if e == nil {
		c.stats.Misses++
		return nil, query.Resolution{}, false, nil
	}
	c.stats.Hits++
	n := topLen(e.scores, k)
	if n > len(e.top) {
		e.build(n, c.rel) // the first hit for this cut, or a longer one
	}
	return e.top[:n:n], e.resolution, true, nil
}

// Put stores a query result and its resolution under the context
// state, evicting the oldest cached state when the capacity is
// exceeded. Storing twice overwrites, and the state keeps its place in
// the eviction order. Only each tuple's index and score are stored.
func (c *Cache) Put(s ctxmodel.State, result []relation.ScoredTuple, resolution query.Resolution) error {
	_, err := c.put(s, result, resolution)
	return err
}

// put is Put, returning the stored entry.
func (c *Cache) put(s ctxmodel.State, result []relation.ScoredTuple, resolution query.Resolution) (*entry, error) {
	if err := c.env.Validate(s); err != nil {
		return nil, err
	}
	limit := math.MaxInt32
	if c.rel != nil {
		limit = c.rel.Len() - 1
	}
	for _, t := range result {
		if t.Index < 0 || t.Index > limit {
			return nil, fmt.Errorf("querytree: tuple index %d out of range [0, %d]", t.Index, limit)
		}
	}
	nd := &c.root
	var cl *cell
	for level, param := range c.order {
		i := nd.find(s[param])
		if i < 0 {
			key, _, _ := c.env.Param(param).Hierarchy().Canonical(s[param])
			nd.cells = append(nd.cells, cell{key: key})
			i = len(nd.cells) - 1
			if level < len(c.order)-1 {
				nd.cells[i].child = &node{}
			}
		}
		cl = &nd.cells[i]
		nd = cl.child
	}
	e := cl.entry
	if e == nil {
		e = &entry{}
		cl.entry = e
		c.link(e)
		c.stats.Puts++
	}
	e.state = resolution.Query
	if !e.state.Equal(s) {
		e.state = s.Clone()
	}
	e.resolution = resolution
	e.idx = make([]int32, len(result))
	e.scores = make([]float64, len(result))
	for i, t := range result {
		e.idx[i], e.scores[i] = int32(t.Index), t.Score
	}
	e.top = nil
	if c.capacity > 0 && c.entries > c.capacity {
		c.remove(c.oldest)
		c.stats.Evictions++
	}
	return e, nil
}

// link appends an entry to the insertion order.
func (c *Cache) link(e *entry) {
	e.prev = c.newest
	if c.newest != nil {
		c.newest.next = e
	} else {
		c.oldest = e
	}
	c.newest = e
	c.entries++
}

// remove drops a cached entry: it unlinks it from the insertion order
// and prunes its path.
func (c *Cache) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.oldest = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.newest = e.prev
	}
	e.prev, e.next = nil, nil
	c.entries--
	c.prune(&c.root, e.state, 0)
}

// prune clears the entry at the end of the state's path, which must
// exist, and removes, bottom-up, every cell of the path left with no
// child cell and no entry.
func (c *Cache) prune(nd *node, s ctxmodel.State, level int) {
	i := nd.find(s[c.order[level]])
	if ch := nd.cells[i].child; ch != nil {
		c.prune(ch, s, level+1)
		if len(ch.cells) > 0 {
			return
		}
	}
	nd.cells = slices.Delete(nd.cells, i, i+1)
}

// InvalidateState drops one cached state, if present, and the cells
// that led only to it.
func (c *Cache) InvalidateState(s ctxmodel.State) error {
	if err := c.env.Validate(s); err != nil {
		return err
	}
	if e := c.find(s); e != nil {
		c.remove(e)
	}
	return nil
}

// Invalidate drops every cached result. Call it whenever the profile
// changes: cached rankings embed preference scores.
func (c *Cache) Invalidate() {
	c.root = node{}
	c.oldest, c.newest = nil, nil
	c.entries = 0
}

// Engine wraps a query.Engine with the cache: single-state queries are
// answered from the cache when possible and cached after execution.
type Engine struct {
	inner *query.Engine
	cache *Cache
}

// NewEngine wires a query engine and a cache together. The cache then
// serves the engine's relation: a hit takes its tuples from it, so one
// cache cannot serve engines over two relations.
func NewEngine(inner *query.Engine, cache *Cache) (*Engine, error) {
	if inner == nil {
		return nil, fmt.Errorf("querytree: nil inner engine")
	}
	if cache == nil {
		return nil, fmt.Errorf("querytree: nil cache")
	}
	rel := inner.Relation()
	if cache.rel != nil && cache.rel != rel {
		return nil, fmt.Errorf("querytree: cache already serves an engine over another relation")
	}
	cache.rel = rel
	return &Engine{inner: inner, cache: cache}, nil
}

// Cache returns the engine's cache, e.g. to invalidate it on profile
// updates.
func (en *Engine) Cache() *Cache { return en.cache }

// Execute answers the query, consulting the cache for single-state
// queries without base selections (selections change the answer and
// would pollute the per-state cache). The cache stores the *full*
// ranked result of a context state; top-k truncation — including the
// paper's ties-extend-the-cutoff rule — is applied on the way out, so
// top-k queries share the cached entry of their state.
func (en *Engine) Execute(cq query.Contextual, current ctxmodel.State) (*query.Result, bool, error) {
	return en.ExecuteCtx(context.Background(), cq, current)
}

// ExecuteCtx is Execute with cooperative cancellation: ctx is threaded
// into the inner engine's resolution and relation scans. Cache lookups
// are trie descents of bounded depth and are not gated; a cancelled
// query is never cached.
func (en *Engine) ExecuteCtx(ctx context.Context, cq query.Contextual, current ctxmodel.State) (*query.Result, bool, error) {
	if len(cq.Selection) == 0 {
		states, err := en.inner.QueryStates(cq, current)
		if err != nil {
			return nil, false, err
		}
		if len(states) == 1 {
			if tuples, resolution, ok, err := en.cache.GetTop(states[0], cq.TopK); err != nil {
				return nil, false, err
			} else if ok {
				tracing.AddEvent(ctx, "querytree.hit")
				return &query.Result{
					Tuples:      tuples,
					Resolutions: []query.Resolution{resolution},
					Contextual:  true,
				}, true, nil
			}
			tracing.AddEvent(ctx, "querytree.miss")
			res, err := en.inner.ExecuteFullCtx(ctx, cq, current)
			if err != nil {
				return nil, false, err
			}
			if res.Contextual {
				e, err := en.cache.put(states[0], res.Tuples, res.Resolutions[0])
				if err != nil {
					return nil, false, err
				}
				res.Tuples = res.Tuples[:topLen(e.scores, cq.TopK)]
			}
			return res, false, nil
		}
	}
	res, err := en.inner.ExecuteCtx(ctx, cq, current)
	return res, false, err
}
