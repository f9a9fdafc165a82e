// Package query implements contextual preference queries (Section 4 of
// "Adding Context to Preferences", ICDE 2007): queries enhanced with
// extended context descriptors, context resolution against a preference
// store, and the Rank_CS algorithm (Algorithm 2) that annotates the
// tuples of the underlying relation with interest scores.
package query

import (
	"context"
	"fmt"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/distance"
	"contextpref/internal/profiletree"
	"contextpref/internal/relation"
	"contextpref/internal/tracing"
)

// Store is a preference store capable of context resolution: both the
// profile tree and the sequential baseline satisfy it.
type Store interface {
	// Env returns the store's context environment.
	Env() *ctxmodel.Environment
	// Resolve returns the best-matching candidate for the state under
	// the metric, the number of cells accessed, and whether any stored
	// state covers the searched one.
	Resolve(s ctxmodel.State, m distance.Metric) (profiletree.Candidate, int, bool, error)
	// ResolveCtx is Resolve with cooperative cancellation: the
	// resolution scan aborts with a wrapped ctx.Err() once ctx is done.
	ResolveCtx(ctx context.Context, s ctxmodel.State, m distance.Metric) (profiletree.Candidate, int, bool, error)
}

var (
	_ Store = (*profiletree.Tree)(nil)
	_ Store = (*profiletree.Sequential)(nil)
)

// Contextual is a contextual query CQ (Def. 9): a base query over the
// relation (a conjunctive selection, possibly empty) enhanced with an
// extended context descriptor.
type Contextual struct {
	// Ecod is the explicit context of the query. When empty, the
	// query's implicit context — the current state passed to Execute —
	// is used instead.
	Ecod ctxmodel.ExtendedDescriptor
	// Selection is the base selection σ of the underlying query; tuples
	// failing it are never returned.
	Selection []relation.Predicate
	// TopK limits the ranked result (0 = unlimited). Per the paper's
	// usability study, ties with the k-th score are included.
	TopK int
}

// Resolution records how one context state of the query was resolved.
type Resolution struct {
	// Query is the searched context state.
	Query ctxmodel.State
	// Match is the best-matching stored candidate (zero if !Found).
	Match profiletree.Candidate
	// Found reports whether any stored state covered the query state.
	Found bool
	// Exact reports whether the match was exact (distance 0 and equal
	// states).
	Exact bool
	// Accesses is the number of store cells examined.
	Accesses int
}

// Result is the outcome of executing a contextual query.
type Result struct {
	// Tuples is the ranked answer.
	Tuples []relation.ScoredTuple
	// Resolutions describe the context resolution per query state, in
	// the order the extended descriptor produced them.
	Resolutions []Resolution
	// Accesses is the total number of store cells examined.
	Accesses int
	// Contextual is false when the query fell back to non-contextual
	// execution because no preference matched (Section 4.2).
	Contextual bool
}

// Engine executes contextual queries against a preference store and a
// relation.
type Engine struct {
	store    Store
	rel      *relation.Relation
	metric   distance.Metric
	combiner relation.Combiner
}

// NewEngine wires a store, a relation, a distance metric and a score
// combiner into a query engine.
func NewEngine(store Store, rel *relation.Relation, m distance.Metric, c relation.Combiner) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("query: nil store")
	}
	if rel == nil {
		return nil, fmt.Errorf("query: nil relation")
	}
	if m == nil {
		return nil, fmt.Errorf("query: nil metric")
	}
	return &Engine{store: store, rel: rel, metric: m, combiner: c}, nil
}

// Store returns the engine's preference store.
func (en *Engine) Store() Store { return en.store }

// Relation returns the engine's relation.
func (en *Engine) Relation() *relation.Relation { return en.rel }

// Metric returns the engine's distance metric.
func (en *Engine) Metric() distance.Metric { return en.metric }

// QueryStates determines the context states of a contextual query: the
// expansion of its extended descriptor if present, otherwise the
// current (implicit) state. A nil current state with an empty
// descriptor yields no states — the query is non-contextual.
func (en *Engine) QueryStates(cq Contextual, current ctxmodel.State) ([]ctxmodel.State, error) {
	if len(cq.Ecod) > 0 {
		return cq.Ecod.Context(en.store.Env())
	}
	if current == nil {
		return nil, nil
	}
	if err := en.store.Env().Validate(current); err != nil {
		return nil, err
	}
	return []ctxmodel.State{current.Clone()}, nil
}

// Execute runs the contextual query: it resolves every query state
// against the store (Search_CS via Store.Resolve), turns the matched
// leaf entries into scored selections over the relation (Rank_CS), and
// ranks the union after combining duplicate-tuple scores. If no state
// resolves, the query executes as a plain selection with no scores, as
// Section 4.2 prescribes.
func (en *Engine) Execute(cq Contextual, current ctxmodel.State) (*Result, error) {
	return en.ExecuteCtx(context.Background(), cq, current)
}

// ExecuteCtx is Execute with cooperative cancellation: ctx is threaded
// into every context resolution (Store.ResolveCtx) and every relation
// scan (Relation.SelectCtx), and consulted between query states, so a
// server deadline or a departed client stops a multi-state Rank_CS
// evaluation at the next check instead of running it to completion. The
// returned error wraps ctx.Err() and is errors.Is-matchable against
// context.Canceled and context.DeadlineExceeded.
func (en *Engine) ExecuteCtx(ctx context.Context, cq Contextual, current ctxmodel.State) (*Result, error) {
	return en.execute(ctx, cq, current, false)
}

// ExecuteFullCtx is ExecuteCtx for a caller that caches contextual
// answers, as the context query tree does: a contextual answer is
// ranked in full whatever cq.TopK, so one answer serves every k, while
// the non-contextual fallback, which is never cached, still stops at
// cq.TopK.
func (en *Engine) ExecuteFullCtx(ctx context.Context, cq Contextual, current ctxmodel.State) (*Result, error) {
	return en.execute(ctx, cq, current, true)
}

// execute runs executeCtx inside the query.execute span, which it
// annotates with the result on the way out.
func (en *Engine) execute(ctx context.Context, cq Contextual, current ctxmodel.State, rankAll bool) (*Result, error) {
	ctx, sp := tracing.Start(ctx, "query.execute")
	res, err := en.executeCtx(ctx, cq, current, rankAll)
	sp.Fail(err)
	if err == nil {
		sp.SetInt("states", int64(len(res.Resolutions)))
		sp.SetInt("tuples", int64(len(res.Tuples)))
		sp.SetInt("accesses", int64(res.Accesses))
		sp.SetBool("contextual", res.Contextual)
	}
	sp.End()
	return res, err
}

// executeCtx is the ExecuteCtx body; rankAll ranks a contextual answer
// in full whatever cq.TopK.
//
//cpvet:scanloop
func (en *Engine) executeCtx(ctx context.Context, cq Contextual, current ctxmodel.State, rankAll bool) (*Result, error) {
	states, err := en.QueryStates(cq, current)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	rs := relation.NewResultSet(en.rel)
	matched := false
	for _, s := range states {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("query: evaluation stopped: %w", err)
		}
		cand, accesses, found, err := en.store.ResolveCtx(ctx, s, en.metric)
		res.Accesses += accesses
		if err != nil {
			return nil, err
		}
		r := Resolution{Query: s, Match: cand, Found: found, Accesses: accesses}
		if found {
			matched = true
			r.Exact = cand.Distance == 0 && cand.State.Equal(s)
			for _, leaf := range cand.Entries {
				preds := append([]relation.Predicate{leaf.Clause.Predicate()}, cq.Selection...)
				idxs, err := en.rel.SelectCtx(ctx, preds...)
				if err != nil {
					return nil, err
				}
				for _, idx := range idxs {
					rs.Add(idx, leaf.Score)
				}
			}
		}
		res.Resolutions = append(res.Resolutions, r)
	}
	if !matched {
		return en.fallback(ctx, cq, res)
	}
	res.Contextual = true
	if cq.TopK > 0 && !rankAll {
		res.Tuples = rs.Top(cq.TopK, en.combiner)
	} else {
		res.Tuples = rs.Ranked(en.combiner)
	}
	return res, nil
}

// fallback is the non-contextual execution of Section 4.2: the plain
// selection, unranked, in tuple order, cut to cq.TopK. It builds only
// the tuples it returns; without a selection it lists no indexes.
func (en *Engine) fallback(ctx context.Context, cq Contextual, res *Result) (*Result, error) {
	var idxs []int
	n := en.rel.Len()
	if len(cq.Selection) > 0 {
		var err error
		if idxs, err = en.rel.SelectCtx(ctx, cq.Selection...); err != nil {
			return nil, err
		}
		n = len(idxs)
	}
	if cq.TopK > 0 && n > cq.TopK {
		n = cq.TopK
	}
	if n == 0 {
		return res, nil
	}
	res.Tuples = make([]relation.ScoredTuple, n)
	for i := range res.Tuples {
		idx := i
		if idxs != nil {
			idx = idxs[i]
		}
		res.Tuples[i] = relation.ScoredTuple{Index: idx, Tuple: en.rel.Tuple(idx)}
	}
	return res, nil
}
