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
package querytree

import (
	"context"
	"fmt"

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

type node struct {
	keys       []string
	children   []*node
	result     []relation.ScoredTuple
	resolution query.Resolution
	occupied   bool
}

func (nd *node) find(key string) *node {
	for i, k := range nd.keys {
		if k == key {
			return nd.children[i]
		}
	}
	return nil
}

// Cache is a context query tree.
type Cache struct {
	env      *ctxmodel.Environment
	order    []int
	root     *node
	capacity int
	fifo     []string // state keys in insertion order, for eviction
	index    map[string]*node
	stats    Stats
}

// New creates a cache over the environment. order assigns parameters to
// trie levels (nil = identity, mirroring profiletree.New). capacity
// bounds the number of cached states; 0 means unbounded.
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
		root:     &node{},
		capacity: capacity,
		index:    make(map[string]*node),
	}, nil
}

// Env returns the cache's environment.
func (c *Cache) Env() *ctxmodel.Environment { return c.env }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Entries = len(c.index)
	s.InternalCells = c.countCells(c.root)
	return s
}

func (c *Cache) countCells(nd *node) int {
	total := len(nd.keys)
	for _, ch := range nd.children {
		total += c.countCells(ch)
	}
	return total
}

// Get returns the cached result and its resolution for the exact
// context state.
//
//cpvet:hotpath allocs=0 the trie descent reads the state in level order in place; a hit must never copy the cached tuples
func (c *Cache) Get(s ctxmodel.State) ([]relation.ScoredTuple, query.Resolution, bool, error) {
	if err := c.env.Validate(s); err != nil {
		return nil, query.Resolution{}, false, err
	}
	nd := c.root
	for _, param := range c.order {
		nd = nd.find(s[param])
		if nd == nil {
			c.stats.Misses++
			return nil, query.Resolution{}, false, nil
		}
	}
	if !nd.occupied {
		c.stats.Misses++
		return nil, query.Resolution{}, false, nil
	}
	c.stats.Hits++
	return nd.result, nd.resolution, true, nil
}

// Put stores a query result and its resolution under the context
// state, evicting the oldest cached state when the capacity is
// exceeded. Storing twice overwrites.
func (c *Cache) Put(s ctxmodel.State, result []relation.ScoredTuple, resolution query.Resolution) error {
	if err := c.env.Validate(s); err != nil {
		return err
	}
	key := s.Key()
	if nd, ok := c.index[key]; ok {
		nd.result = append([]relation.ScoredTuple(nil), result...)
		nd.resolution = resolution
		return nil
	}
	nd := c.root
	for _, param := range c.order {
		k := s[param]
		child := nd.find(k)
		if child == nil {
			child = &node{}
			nd.keys = append(nd.keys, k)
			nd.children = append(nd.children, child)
		}
		nd = child
	}
	nd.result = append([]relation.ScoredTuple(nil), result...)
	nd.resolution = resolution
	nd.occupied = true
	c.index[key] = nd
	c.fifo = append(c.fifo, key)
	c.stats.Puts++
	if c.capacity > 0 && len(c.index) > c.capacity {
		c.evictOldest()
	}
	return nil
}

// evictOldest removes the least recently inserted state.
func (c *Cache) evictOldest() {
	for len(c.fifo) > 0 {
		key := c.fifo[0]
		c.fifo = c.fifo[1:]
		if nd, ok := c.index[key]; ok {
			nd.result = nil
			nd.resolution = query.Resolution{}
			nd.occupied = false
			delete(c.index, key)
			c.stats.Evictions++
			return
		}
	}
}

// InvalidateState drops one cached state, if present.
func (c *Cache) InvalidateState(s ctxmodel.State) error {
	if err := c.env.Validate(s); err != nil {
		return err
	}
	if nd, ok := c.index[s.Key()]; ok {
		nd.result = nil
		nd.resolution = query.Resolution{}
		nd.occupied = false
		delete(c.index, s.Key())
	}
	return nil
}

// Invalidate drops every cached result. Call it whenever the profile
// changes: cached rankings embed preference scores.
func (c *Cache) Invalidate() {
	c.root = &node{}
	c.index = make(map[string]*node)
	c.fifo = nil
}

// Engine wraps a query.Engine with the cache: single-state queries are
// answered from the cache when possible and cached after execution.
type Engine struct {
	inner *query.Engine
	cache *Cache
}

// NewEngine wires a query engine and a cache together.
func NewEngine(inner *query.Engine, cache *Cache) (*Engine, error) {
	if inner == nil {
		return nil, fmt.Errorf("querytree: nil inner engine")
	}
	if cache == nil {
		return nil, fmt.Errorf("querytree: nil cache")
	}
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
			if tuples, resolution, ok, err := en.cache.Get(states[0]); err != nil {
				return nil, false, err
			} else if ok {
				tracing.AddEvent(ctx, "querytree.hit")
				return &query.Result{
					Tuples:      cutTopK(tuples, cq.TopK),
					Resolutions: []query.Resolution{resolution},
					Contextual:  true,
				}, true, nil
			}
			tracing.AddEvent(ctx, "querytree.miss")
			full := cq
			full.TopK = 0
			res, err := en.inner.ExecuteCtx(ctx, full, current)
			if err != nil {
				return nil, false, err
			}
			if res.Contextual {
				if err := en.cache.Put(states[0], res.Tuples, res.Resolutions[0]); err != nil {
					return nil, false, err
				}
				res.Tuples = cutTopK(res.Tuples, cq.TopK)
			} else if cq.TopK > 0 && len(res.Tuples) > cq.TopK {
				// Non-contextual fallback: plain truncation, mirroring
				// query.Engine's behaviour.
				res.Tuples = res.Tuples[:cq.TopK]
			}
			return res, false, nil
		}
	}
	res, err := en.inner.ExecuteCtx(ctx, cq, current)
	return res, false, err
}

// cutTopK truncates a ranked list to k entries, extended through ties
// with the k-th score (the semantics of relation.ResultSet.Top).
func cutTopK(tuples []relation.ScoredTuple, k int) []relation.ScoredTuple {
	if k <= 0 || len(tuples) <= k {
		return tuples
	}
	cut := k
	for cut < len(tuples) && tuples[cut].Score == tuples[k-1].Score {
		cut++
	}
	return tuples[:cut]
}
