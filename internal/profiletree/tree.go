// Package profiletree implements the profile tree of Section 3.3 of
// "Adding Context to Preferences" (ICDE 2007) — a trie-like index over
// the context states appearing in a profile — together with the
// Search_CS context-resolution algorithm (Algorithm 1, Section 4.4) and
// the sequential-scan baseline the paper's performance evaluation
// compares against.
//
// Structure. The tree has one level per context parameter plus a leaf
// level, so its height is n+1. Every non-leaf node holds cells
// [key, pointer] with key ∈ edom(Ck) ∪ {all} for the parameter Ck
// assigned to that level; no two cells of a node share a key. A leaf
// node stores the attribute clauses and interest scores of the
// preferences whose descriptors produced the root-to-leaf path.
//
// Cost accounting. NumCells, Bytes and the access counters returned by
// the search methods implement the paper's cost model: one "cell" is
// one [key, pointer] pair of an internal node or one
// [attribute = value, score] entry of a leaf, and a search "accesses" a
// cell when it examines it during the linear scan of a node. The
// byte model charges each internal cell len(key) + PointerBytes and
// each leaf entry its clause text plus ScoreBytes.
package profiletree

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/distance"
	"contextpref/internal/hierarchy"
	"contextpref/internal/preference"
	"contextpref/internal/telemetry"
	"contextpref/internal/tracing"
)

// PointerBytes is the byte cost charged per internal cell pointer.
const PointerBytes = 8

// ScoreBytes is the byte cost charged per stored interest score.
const ScoreBytes = 8

// cancelCheckEvery is the cooperative-cancellation granularity of the
// search loops: ctx.Err() is consulted once per this many cell
// accesses, bounding both the cancellation latency (at most this many
// cells of extra work after the deadline) and the per-cell overhead (a
// mask test on the fast path). It must be a power of two.
const cancelCheckEvery = 64

// canceled wraps a context error in the package's error vocabulary;
// errors.Is still sees context.Canceled / context.DeadlineExceeded.
func canceled(err error) error {
	return fmt.Errorf("profiletree: search stopped: %w", err)
}

// Leaf is one [attribute clause, interest score] entry of a leaf node.
type Leaf struct {
	// Clause is the preference's attribute clause.
	Clause preference.Clause
	// Score is the preference's degree of interest.
	Score float64
}

// node is either an internal node (keys/spans/children, parallel slices
// in insertion order) or a leaf node (entries). spans[i] is the
// interval encoding of keys[i], recorded when the cell is created, so
// Search_CS tests a cell for cover with integer compares alone.
type node struct {
	keys     []string
	spans    []hierarchy.Span
	children []*node
	entries  []Leaf
}

// find linearly scans the node's cells for a key, returning the child
// and the number of cells examined.
func (nd *node) find(key string) (*node, int) {
	for i, k := range nd.keys {
		if k == key {
			return nd.children[i], i + 1
		}
	}
	return nil, len(nd.keys)
}

// child returns the child for key, a value of h, creating it if
// absent; created reports whether a new cell was added.
func (nd *node) child(key string, h *hierarchy.Hierarchy) (c *node, created bool) {
	if c, _ := nd.find(key); c != nil {
		return c, false
	}
	sp, _ := h.SpanOf(key)
	c = &node{}
	nd.keys = append(nd.keys, key)
	nd.spans = append(nd.spans, sp)
	nd.children = append(nd.children, c)
	return c, true
}

// Tree is a profile tree over a context environment. The zero Tree is
// not usable; construct with New.
type Tree struct {
	env   *ctxmodel.Environment
	order []int // order[level] = environment index of the parameter at that tree level
	root  *node

	numPaths         int // distinct root-to-leaf paths (context states)
	numInternalCells int
	numLeafEntries   int
	numPrefs         int
	// version counts mutations: every applied insertion and every
	// deletion that removed an entry bumps it (see Version).
	version uint64

	// metrics, when set, observes the paper's cost model live; nil (the
	// default) costs one pointer check per resolution.
	metrics *Metrics
}

// Metrics are the resolution cost counters a Tree reports, mirroring
// the paper's Section 5 cost model (cells accessed per resolution,
// candidates per resolution). Every field is optional: nil fields — and
// a nil *Metrics — are no-ops, so instrumentation can be switched off
// entirely or per metric.
type Metrics struct {
	// Resolutions counts Resolve/ResolveAll calls by outcome ("hit",
	// "miss"): a hit found at least one covering state.
	Resolutions *telemetry.CounterVec
	// CellsVisited counts profile-tree cells accessed during
	// resolution — the paper's per-query cost metric, aggregated.
	CellsVisited *telemetry.Counter
	// CandidatesFound counts covering states discovered.
	CandidatesFound *telemetry.Counter
	// CellsPerResolve is the per-resolution distribution of cells
	// accessed.
	CellsPerResolve *telemetry.Histogram
}

// observe records one resolution's cost; nil-safe.
func (m *Metrics) observe(cells, candidates int, hit bool) {
	if m == nil {
		return
	}
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	m.Resolutions.With(outcome).Inc()
	m.CellsVisited.Add(cells)
	m.CandidatesFound.Add(candidates)
	m.CellsPerResolve.Observe(float64(cells))
}

// SetMetrics attaches (or, with nil, detaches) resolution cost
// counters. Call before serving; the Tree does not synchronize metric
// swaps with concurrent searches.
func (t *Tree) SetMetrics(m *Metrics) { t.metrics = m }

// New creates an empty profile tree. order maps tree levels to
// environment parameter indexes (order[0] is the parameter indexed at
// the first level); nil means the identity order. The paper shows that
// placing parameters with larger domains lower in the tree minimizes
// its size — see Fig. 5/6, reproduced by the experiments package.
func New(env *ctxmodel.Environment, order []int) (*Tree, error) {
	if env == nil {
		return nil, fmt.Errorf("profiletree: nil environment")
	}
	n := env.NumParams()
	if order == nil {
		order = IdentityOrder(n)
	}
	if len(order) != n {
		return nil, fmt.Errorf("profiletree: order has %d entries, environment has %d parameters", len(order), n)
	}
	seen := make([]bool, n)
	for _, p := range order {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("profiletree: order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[p] = true
	}
	return &Tree{
		env:   env,
		order: append([]int(nil), order...),
		root:  &node{},
	}, nil
}

// IdentityOrder returns [0, 1, ..., n-1].
func IdentityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// AllOrders enumerates every permutation of n parameters in
// lexicographic order; the paper's "order 1" .. "order n!" labels index
// into this slice after domain-size sorting (see the experiments
// package).
func AllOrders(n int) [][]int {
	var out [][]int
	perm := IdentityOrder(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		// Lexicographic: choose each remaining element in order.
		rest := append([]int(nil), perm[k:]...)
		sort.Ints(rest)
		copy(perm[k:], rest)
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			sub := append([]int(nil), perm[k+1:]...)
			sort.Ints(sub)
			copy(perm[k+1:], sub)
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// Env returns the environment the tree indexes.
func (t *Tree) Env() *ctxmodel.Environment { return t.env }

// Order returns the parameter-to-level assignment.
func (t *Tree) Order() []int { return append([]int(nil), t.order...) }

// NumPaths returns the number of distinct context states stored.
func (t *Tree) NumPaths() int { return t.numPaths }

// NumPreferences returns how many preferences were inserted.
func (t *Tree) NumPreferences() int { return t.numPrefs }

// NumInternalCells returns the number of [key, pointer] cells.
func (t *Tree) NumInternalCells() int { return t.numInternalCells }

// NumLeafEntries returns the number of [clause, score] leaf entries.
func (t *Tree) NumLeafEntries() int { return t.numLeafEntries }

// Version returns the tree's mutation counter: it moves on every
// applied insertion and on every Delete that removed at least one
// entry, and on nothing else. Two equal readings bracket a span in
// which the stored profile did not change, so a caller holding a record
// form of the profile taken at the first reading can reuse it instead
// of re-encoding the tree.
func (t *Tree) Version() uint64 { return t.version }

// NumCells returns the paper's cell count: internal cells plus leaf
// entries.
func (t *Tree) NumCells() int { return t.numInternalCells + t.numLeafEntries }

// Bytes returns the modeled storage size of the tree, charging
// PointerBytes per internal cell pointer.
func (t *Tree) Bytes() int { return t.BytesModel(PointerBytes) }

// KeyBytes returns the storage size under the paper's byte accounting,
// which counts only stored key/value/score payloads (Fig. 5's serial
// profile ≈ 12.8 KB over ≈ 2.1k cells implies ~6 B per cell — string
// payloads with no pointer charge).
func (t *Tree) KeyBytes() int { return t.BytesModel(0) }

// BytesModel returns the modeled storage size charging pointerBytes per
// internal cell pointer.
func (t *Tree) BytesModel(pointerBytes int) int {
	total := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		for i, k := range nd.keys {
			total += len(k) + pointerBytes
			walk(nd.children[i])
		}
		for _, e := range nd.entries {
			total += leafEntryBytes(e)
		}
	}
	walk(t.root)
	return total
}

// leafEntryBytes is the modeled size of one leaf entry.
func leafEntryBytes(e Leaf) int {
	return len(e.Clause.Attr) + len(e.Clause.Val.String()) + ScoreBytes
}

// Insert adds every context state of the preference's descriptor to the
// tree (Section 3.3). Conflicts (Def. 6) are detected during insertion
// by traversing each state's root-to-leaf path first: if any state
// carries the same clause with a different score, Insert returns a
// *preference.ConflictError and the tree is left unchanged. Re-inserting
// an identical (state, clause, score) triple is a no-op for that state.
func (t *Tree) Insert(p preference.Preference) error {
	return t.InsertAll(p)
}

// Batch is a preference batch that Check validated against a tree,
// together with each member's descriptor expansion, ready for Apply.
type Batch struct {
	tree     *Tree
	version  uint64 // the tree's Version() when checked
	prefs    []preference.Preference
	expanded [][]ctxmodel.State
}

// pairKey identifies one (state, clause) pair. The clause is compared
// by value, which is exactly Clause.Equal, so the batch check and the
// stored-entry check agree on when two clauses are the same.
type pairKey struct {
	state  string // the state's Key()
	clause preference.Clause
}

// batchIndex maps each (state, clause) pair that the batch members
// checked so far store to the first member storing it.
type batchIndex struct {
	members []preference.Preference
	first   map[pairKey]int
}

// checkInsert validates p, member i of a batch, without mutating the
// tree: score range, descriptor validity, and Def. 6 conflicts against
// both the stored entries and — when bi is non-nil — the pairs of the
// earlier members of the batch, to which it then adds p's. It returns
// the descriptor's expansion for applyInsert.
func (t *Tree) checkInsert(p preference.Preference, i int, bi *batchIndex) ([]ctxmodel.State, error) {
	if !(p.Score >= 0 && p.Score <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("profiletree: interest score %v outside [0, 1]", p.Score)
	}
	states, err := p.Descriptor.Context(t.env)
	if err != nil {
		return nil, err
	}
	for _, s := range states {
		if leafNode, _ := t.descendExact(s); leafNode != nil {
			for _, e := range leafNode.entries {
				if e.Clause.Equal(p.Clause) && e.Score != p.Score {
					return nil, &preference.ConflictError{
						New:      p,
						Existing: preference.Preference{Descriptor: p.Descriptor, Clause: e.Clause, Score: e.Score},
						State:    s,
					}
				}
			}
		}
		if bi == nil {
			continue
		}
		k := pairKey{state: s.Key(), clause: p.Clause}
		if j, ok := bi.first[k]; !ok {
			bi.first[k] = i
		} else if q := bi.members[j]; q.Score != p.Score {
			return nil, &preference.ConflictError{New: p, Existing: q, State: s}
		}
	}
	return states, nil
}

// Check validates a batch without mutating the tree: each preference is
// checked against the stored entries and against the earlier members of
// the batch. Batch errors are annotated with the failing index
// ("preference %d: ..."); a single preference keeps its bare error. A
// nil error returns the checked batch, which Apply stores as long as the
// tree has not changed in between. ps belongs to the batch until then.
func (t *Tree) Check(ps ...preference.Preference) (Batch, error) {
	var bi *batchIndex
	if len(ps) > 1 {
		bi = &batchIndex{members: ps, first: make(map[pairKey]int, len(ps))}
	}
	expanded := make([][]ctxmodel.State, len(ps))
	for i, p := range ps {
		states, err := t.checkInsert(p, i, bi)
		if err != nil {
			if len(ps) > 1 {
				return Batch{}, fmt.Errorf("preference %d: %w", i, err)
			}
			return Batch{}, err
		}
		expanded[i] = states
	}
	return Batch{tree: t, version: t.version, prefs: ps, expanded: expanded}, nil
}

// Apply stores a batch that Check validated, reusing the expansions the
// check made. It refuses, changing nothing, a batch checked against
// another tree or before this tree's Version() last moved: the check's
// verdict holds only for the profile it saw. A batch applies once,
// since applying it moves the version.
func (t *Tree) Apply(b Batch) error {
	if b.tree != t || b.version != t.version {
		return fmt.Errorf("profiletree: batch checked against version %d, tree is at version %d", b.version, t.version)
	}
	for i, p := range b.prefs {
		t.applyInsert(p, b.expanded[i])
	}
	return nil
}

// CheckInsert reports the error InsertAll would return for the batch
// without mutating the tree. A nil return guarantees InsertAll on the
// same batch succeeds (absent intervening mutations).
func (t *Tree) CheckInsert(ps ...preference.Preference) error {
	_, err := t.Check(ps...)
	return err
}

// InsertAll inserts a batch atomically: Check first, then Apply, so a
// failing batch leaves the tree completely unchanged — callers never
// observe a half-applied profile. Each descriptor is expanded once.
func (t *Tree) InsertAll(ps ...preference.Preference) error {
	b, err := t.Check(ps...)
	if err != nil {
		return err
	}
	return t.Apply(b)
}

// applyInsert inserts the preference's entry under each of its states
// (the descriptor's expansion, as checkInsert returned it) with
// incremental counter maintenance. It must only run after checkInsert
// passed on the tree as it is.
func (t *Tree) applyInsert(p preference.Preference, states []ctxmodel.State) {
	for _, s := range states {
		nd := t.root
		for _, param := range t.order {
			var created bool
			nd, created = nd.child(s[param], t.env.Param(param).Hierarchy())
			if created {
				t.numInternalCells++
			}
		}
		dup := false
		for _, e := range nd.entries {
			if e.Clause.Equal(p.Clause) && e.Score == p.Score {
				dup = true
				break
			}
		}
		if !dup {
			if len(nd.entries) == 0 {
				t.numPaths++
			}
			nd.entries = append(nd.entries, Leaf{Clause: p.Clause, Score: p.Score})
			t.numLeafEntries++
		}
	}
	t.numPrefs++
	t.version++
}

// Delete removes the preference's (clause, score) entry from every
// context state its descriptor denotes, pruning paths whose leaves
// become empty so the tree's size accounting matches a fresh build of
// the remaining preferences. It returns how many leaf entries were
// removed (zero when nothing matched) — the usability study's users
// delete preferences from their default profiles, so removal is a
// first-class operation.
//
// Storage is per (state, clause, score) entry: insertion deduplicates
// an entry shared by two preferences, and deletion symmetrically
// removes it for both.
func (t *Tree) Delete(p preference.Preference) (int, error) {
	states, err := p.Descriptor.Context(t.env)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range states {
		if t.deletePath(t.root, s, 0, p) {
			removed++
		}
	}
	if removed > 0 {
		t.version++
		t.numPrefs--
		if t.numPrefs < 0 {
			t.numPrefs = 0
		}
	}
	return removed, nil
}

// deletePath removes the entry along the state's path, pruning empty
// nodes bottom-up; it reports whether an entry was removed.
func (t *Tree) deletePath(nd *node, s ctxmodel.State, level int, p preference.Preference) bool {
	if level == len(t.order) {
		for i, e := range nd.entries {
			if e.Clause.Equal(p.Clause) && e.Score == p.Score {
				nd.entries = append(nd.entries[:i], nd.entries[i+1:]...)
				t.numLeafEntries--
				if len(nd.entries) == 0 {
					t.numPaths--
				}
				return true
			}
		}
		return false
	}
	for i, key := range nd.keys {
		if key != s[t.order[level]] {
			continue
		}
		child := nd.children[i]
		if !t.deletePath(child, s, level+1, p) {
			return false
		}
		// Prune the cell if the child holds nothing anymore.
		if len(child.keys) == 0 && len(child.entries) == 0 {
			nd.keys = slices.Delete(nd.keys, i, i+1)
			nd.spans = slices.Delete(nd.spans, i, i+1)
			nd.children = slices.Delete(nd.children, i, i+1)
			t.numInternalCells--
		}
		return true
	}
	return false
}

// InsertProfile inserts every preference of the profile atomically: on
// error nothing is inserted.
func (t *Tree) InsertProfile(pr *preference.Profile) error {
	return t.InsertAll(pr.Preferences()...)
}

// descendExact follows the exact path for a state, returning the leaf
// node (nil if the path is absent) and the number of cells accessed.
func (t *Tree) descendExact(s ctxmodel.State) (*node, int) {
	nd := t.root
	accesses := 0
	for _, param := range t.order {
		child, scanned := nd.find(s[param])
		accesses += scanned
		if child == nil {
			return nil, accesses
		}
		nd = child
	}
	return nd, accesses
}

// SearchExact looks up the exact context state (the first case of the
// paper's query-complexity analysis: a single root-to-leaf traversal).
// It returns the leaf entries for the state, the number of cells
// accessed, and whether the state is present.
func (t *Tree) SearchExact(s ctxmodel.State) ([]Leaf, int, error) {
	if err := t.env.Validate(s); err != nil {
		return nil, 0, err
	}
	nd, accesses := t.descendExact(s)
	if nd == nil {
		return nil, accesses, nil
	}
	return append([]Leaf(nil), nd.entries...), accesses, nil
}

// Candidate is one root-to-leaf path found by Search_CS whose context
// state covers the searched state, annotated with its distance.
type Candidate struct {
	// State is the candidate context state, in environment parameter
	// order.
	State ctxmodel.State
	// Entries are the leaf entries stored under the state.
	Entries []Leaf
	// Distance is the metric distance from the searched state.
	Distance float64
	// Specificity is the number of detailed context states the
	// candidate covers (the product of its values' descendant-set
	// sizes) — the paper's "cardinality" of a state. Best prefers
	// smaller (more specific) states among equal distances, per the
	// Section 4.3 discussion of selecting the most specific match.
	Specificity int
}

// specificity computes the candidate-state cardinality: the product of
// its values' descendant-run lengths.
func specificity(e *ctxmodel.Environment, s ctxmodel.State) int {
	total := 1
	for i, v := range s {
		if sp, ok := e.Param(i).Hierarchy().SpanOf(v); ok {
			total *= sp.Len()
		}
	}
	return total
}

// sink selects what a Search_CS walk keeps of the covering leaves it
// reaches.
type sink int

const (
	// keepAll materializes every covering leaf as a Candidate.
	keepAll sink = iota
	// keepBest remembers only the (distance, state key)-least covering
	// leaf and materializes it once the walk is over.
	keepBest
	// keepBestPruned is keepBest that also abandons every branch whose
	// accumulated distance already exceeds the best leaf's.
	keepBestPruned
)

// inlineParams is the environment arity up to which a walk keeps its
// per-parameter buffers on the stack.
const inlineParams = 8

// coverWalk is one Search_CS traversal of the tree for a validated
// state. It visits exactly the cells Algorithm 1 visits and hands every
// covering leaf to its sink.
type coverWalk struct {
	ctx  context.Context
	t    *Tree
	m    distance.Metric
	sink sink
	s    ctxmodel.State // the searched state

	accesses int
	found    int         // covering leaves reached
	all      []Candidate // keepAll
	// best, bestLeaf, bestDist and bestSpec describe the least leaf
	// so far (keepBest, keepBestPruned).
	best     ctxmodel.State
	bestLeaf *node
	bestDist float64
	bestSpec int
}

// search runs one Search_CS walk for the validated state s. The walk's
// path buffer and the searched values' interval encodings are passed
// down the recursion rather than held in the walk, so both stay on
// this frame's stack.
func (t *Tree) search(ctx context.Context, s ctxmodel.State, m distance.Metric, sk sink) (coverWalk, error) {
	var curBuf [inlineParams]string
	var targetBuf [inlineParams]hierarchy.Span
	cur, target := curBuf[:0], targetBuf[:0]
	for i, v := range s {
		sp, _ := t.env.Param(i).Hierarchy().SpanOf(v)
		cur = append(cur, "")
		target = append(target, sp)
	}
	w := coverWalk{ctx: ctx, t: t, m: m, sink: sk, s: s}
	err := w.walk(t.root, 0, 0, 1, cur, target)
	return w, err
}

// walk implements Algorithm 1 below nd. At each level it follows both
// the cell that exactly matches the searched value and every cell
// holding an ancestor of it (including "all"); a cell covers the value
// when its interval encoding contains the value's (target, in
// environment order). The paper's pseudocode phrases these as exclusive
// branches; following both is required for correctness when the exact
// branch dead-ends deeper in the tree while an ancestor branch reaches
// a leaf, and matches the paper's own cost analysis which charges for
// all "cells that have relevant values from the upper levels". dist
// and spec are the accumulated distance and specificity of the path so
// far, and cur holds its keys in environment order.
//
//cpvet:scanloop
func (w *coverWalk) walk(nd *node, level int, dist float64, spec int, cur ctxmodel.State, target []hierarchy.Span) error {
	// Strict inequality: equal-distance paths are still explored so the
	// key tie-break agrees with Best(SearchCover(...)).
	if w.sink == keepBestPruned && w.found > 0 && dist > w.bestDist {
		return nil
	}
	if level == len(w.t.order) {
		if len(nd.entries) > 0 {
			w.keep(nd, dist, spec, cur)
		}
		return nil
	}
	param := w.t.order[level]
	want := target[param]
	for i, sp := range nd.spans {
		w.accesses++
		if w.accesses&(cancelCheckEvery-1) == 0 {
			if err := w.ctx.Err(); err != nil {
				return canceled(err)
			}
		}
		if !sp.Covers(want) {
			continue
		}
		d, err := w.m.ValueDistance(w.t.env, param, nd.keys[i], w.s[param])
		if err != nil {
			return err
		}
		cur[param] = nd.keys[i]
		if err := w.walk(nd.children[i], level+1, dist+d, spec*sp.Len(), cur, target); err != nil {
			return err
		}
	}
	return nil
}

// keep hands one covering leaf, whose state is cur, to the sink.
func (w *coverWalk) keep(nd *node, dist float64, spec int, cur ctxmodel.State) {
	w.found++
	if w.sink == keepAll {
		w.all = append(w.all, Candidate{
			State:       cur.Clone(),
			Entries:     slices.Clone(nd.entries),
			Distance:    dist,
			Specificity: spec,
		})
		return
	}
	if w.found > 1 && !(dist < w.bestDist || dist == w.bestDist && cur.CompareKey(w.best) < 0) {
		return
	}
	if w.best == nil {
		w.best = make(ctxmodel.State, len(cur))
	}
	copy(w.best, cur)
	w.bestLeaf, w.bestDist, w.bestSpec = nd, dist, spec
}

// bestCandidate materializes the least covering leaf of a keepBest walk.
func (w *coverWalk) bestCandidate() (Candidate, bool) {
	if w.found == 0 {
		return Candidate{}, false
	}
	return Candidate{
		State:       w.best,
		Entries:     slices.Clone(w.bestLeaf.entries),
		Distance:    w.bestDist,
		Specificity: w.bestSpec,
	}, true
}

// SearchCover implements Algorithm 1 (Search_CS): it collects every
// root-to-leaf path whose context state covers the searched state,
// annotating each with its distance under the metric, and returns the
// number of cells accessed.
func (t *Tree) SearchCover(s ctxmodel.State, m distance.Metric) ([]Candidate, int, error) {
	return t.SearchCoverCtx(context.Background(), s, m)
}

// SearchCoverCtx is SearchCover with cooperative cancellation: the scan
// consults ctx once per cancelCheckEvery cell accesses and aborts with
// a wrapped ctx.Err() (errors.Is-matchable against context.Canceled and
// context.DeadlineExceeded) once the context is done, so a server
// deadline or a departed client stops the tree walk early instead of
// running it to completion.
func (t *Tree) SearchCoverCtx(ctx context.Context, s ctxmodel.State, m distance.Metric) ([]Candidate, int, error) {
	if err := t.env.Validate(s); err != nil {
		return nil, 0, err
	}
	w, err := t.search(ctx, s, m, keepAll)
	if err != nil {
		return nil, w.accesses, err
	}
	return w.all, w.accesses, nil
}

// SearchCoverBest is the branch-and-bound variant the paper sketches as
// "a simple runtime check that keeps the current closest leaf": it
// explores the same cells as SearchCover but abandons any branch whose
// accumulated distance already reaches the best complete path found so
// far, returning only the best candidate. Both metrics are
// per-parameter sums of non-negative terms, so the accumulated distance
// is a lower bound and pruning is safe.
func (t *Tree) SearchCoverBest(s ctxmodel.State, m distance.Metric) (Candidate, int, bool, error) {
	return t.SearchCoverBestCtx(context.Background(), s, m)
}

// SearchCoverBestCtx is SearchCoverBest with cooperative cancellation,
// on the same contract as SearchCoverCtx.
func (t *Tree) SearchCoverBestCtx(ctx context.Context, s ctxmodel.State, m distance.Metric) (Candidate, int, bool, error) {
	if err := t.env.Validate(s); err != nil {
		return Candidate{}, 0, false, err
	}
	w, err := t.search(ctx, s, m, keepBestPruned)
	if err != nil {
		return Candidate{}, w.accesses, false, err
	}
	best, ok := w.bestCandidate()
	return best, w.accesses, ok, nil
}

// Best returns the candidate with the minimum distance (Def. 12's
// match, disambiguated by the metric per Section 4.3), breaking exact
// ties deterministically — but otherwise arbitrarily — by state key.
// Ties are frequent under the integer-valued hierarchy distance and
// rare under Jaccard, which is exactly why the paper's usability study
// found Jaccard more accurate; the tie-break deliberately does not
// consult state cardinality, because "smallest cardinality" is the
// selection principle the Jaccard metric itself embodies (Section 4.3).
// ok is false when no stored state covers the searched one — the caller
// should then fall back to non-contextual execution, as Section 4.2
// prescribes.
func Best(cands []Candidate) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if betterCandidate(c, best) {
			best = c
		}
	}
	return best, true
}

// betterCandidate orders candidates by (distance, key).
func betterCandidate(a, b Candidate) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.State.CompareKey(b.State) < 0
}

// Resolve performs full context resolution for one searched state: an
// exact lookup first, then Search_CS with the metric. It returns the
// best candidate, the total cells accessed, and ok=false when nothing
// in the profile covers the state.
func (t *Tree) Resolve(s ctxmodel.State, m distance.Metric) (Candidate, int, bool, error) {
	return t.ResolveCtx(context.Background(), s, m)
}

// ResolveCtx is Resolve with cooperative cancellation: the Search_CS
// scan aborts (with a wrapped ctx.Err()) once ctx is done. The exact
// root-to-leaf lookup is a single bounded descent and is not gated. The
// cells accessed before the abort are still counted into the metrics,
// so cancellations are observable in cp_resolve_cells_total. The state
// is validated once, and the cover scan materializes only its winner.
//
//cpvet:hotpath allocs=2 cover-query resolution over the real profile with full instrumentation: a resolved query allocates its winner's state and entries, a miss nothing; move it only with a benchmark
func (t *Tree) ResolveCtx(ctx context.Context, s ctxmodel.State, m distance.Metric) (Candidate, int, bool, error) {
	ctx, sp := tracing.Start(ctx, "profiletree.resolve")
	defer sp.End()
	if err := t.env.Validate(s); err != nil {
		sp.Fail(err)
		return Candidate{}, 0, false, err
	}
	nd, accesses := t.descendExact(s)
	if nd != nil && len(nd.entries) > 0 {
		t.metrics.observe(accesses, 1, true)
		sp.SetInt("cells", int64(accesses))
		sp.SetBool("exact", true)
		sp.SetBool("hit", true)
		return Candidate{State: s.Clone(), Entries: slices.Clone(nd.entries), Distance: 0}, accesses, true, nil
	}
	w, err := t.search(ctx, s, m, keepBest)
	accesses += w.accesses
	if err != nil {
		t.metrics.observe(accesses, 0, false)
		sp.Fail(err)
		return Candidate{}, accesses, false, err
	}
	best, ok := w.bestCandidate()
	t.metrics.observe(accesses, w.found, ok)
	// The paper's Section 5 cost model, per request: cells visited by
	// the Search_CS scan, covering candidates found, and the winning
	// cover's hierarchy distance and specificity.
	sp.SetInt("cells", int64(accesses))
	sp.SetInt("candidates", int64(w.found))
	sp.SetBool("hit", ok)
	if ok {
		sp.SetFloat("distance", best.Distance)
		sp.SetInt("specificity", int64(best.Specificity))
	}
	return best, accesses, ok, nil
}

// ResolveAll returns every stored state covering s ordered from most to
// least relevant under the metric (distance, then specificity, then
// state key). Section 4.2 suggests presenting all matches to the user
// when several states qualify and none dominates; this is that API. An
// exact match, if present, appears first with distance 0.
func (t *Tree) ResolveAll(s ctxmodel.State, m distance.Metric) ([]Candidate, int, error) {
	return t.ResolveAllCtx(context.Background(), s, m)
}

// ResolveAllCtx is ResolveAll with cooperative cancellation, on the
// same contract as ResolveCtx.
func (t *Tree) ResolveAllCtx(ctx context.Context, s ctxmodel.State, m distance.Metric) ([]Candidate, int, error) {
	ctx, sp := tracing.Start(ctx, "profiletree.resolve_all")
	defer sp.End()
	cands, accesses, err := t.SearchCoverCtx(ctx, s, m)
	if err != nil {
		t.metrics.observe(accesses, len(cands), false)
		sp.Fail(err)
		return nil, accesses, err
	}
	t.metrics.observe(accesses, len(cands), len(cands) > 0)
	sp.SetInt("cells", int64(accesses))
	sp.SetInt("candidates", int64(len(cands)))
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Specificity, b.Specificity); c != 0 {
			return c
		}
		return a.State.CompareKey(b.State)
	})
	return cands, accesses, nil
}

// Paths enumerates every stored context state (in environment order)
// with its leaf entries, in depth-first tree order; useful for tests,
// diagnostics and serialization.
func (t *Tree) Paths() []Candidate {
	var out []Candidate
	cur := make(ctxmodel.State, len(t.order))
	var rec func(nd *node, level int)
	rec = func(nd *node, level int) {
		if level == len(t.order) {
			if len(nd.entries) > 0 {
				out = append(out, Candidate{State: cur.Clone(), Entries: slices.Clone(nd.entries)})
			}
			return
		}
		for i, key := range nd.keys {
			cur[t.order[level]] = key
			rec(nd.children[i], level+1)
		}
	}
	rec(t.root, 0)
	return out
}

// MaxCells returns the paper's worst-case size bound for the given
// per-level domain cardinalities: m1*(1 + m2*(1 + ... (1 + mn))).
func MaxCells(domainSizes []int) int {
	if len(domainSizes) == 0 {
		return 0
	}
	acc := domainSizes[len(domainSizes)-1]
	for i := len(domainSizes) - 2; i >= 0; i-- {
		acc = domainSizes[i] * (1 + acc)
	}
	return acc
}
