package contextpref

import (
	"context"
	"fmt"

	"contextpref/internal/distance"
	"contextpref/internal/preference"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/querytree"
	"contextpref/internal/relation"
	"contextpref/internal/tracing"
)

// System is the assembled context-aware preference database: a profile
// tree over a context environment, a relation to rank, a distance
// metric for context resolution, and (optionally) a context query tree
// caching results. It is not safe for concurrent mutation; wrap it in
// your own synchronization if several goroutines add preferences.
type System struct {
	env      *Environment
	rel      *Relation
	tree     *ProfileTree
	metric   Metric
	combiner Combiner
	engine   *query.Engine
	cache    *querytree.Cache
	cached   *querytree.Engine

	// persist, when set via SetPersister, journals every committed
	// mutation under persistUser before it is applied.
	persist     Persister
	persistUser string
	// health, when set via SetHealth, gates mutations while the store
	// is degraded and is marked on persistence failures.
	health *Health
}

// Option configures a System.
type Option func(*options)

type options struct {
	metric    Metric
	combiner  Combiner
	treeOrder []int
	cacheCap  int
	useCache  bool
	telemetry *TelemetryRegistry
}

// WithMetric selects the context-resolution distance (default Jaccard,
// which the paper's usability study found slightly more accurate).
func WithMetric(m Metric) Option { return func(o *options) { o.metric = m } }

// WithCombiner selects how duplicate-tuple scores merge (default max).
func WithCombiner(c Combiner) Option { return func(o *options) { o.combiner = c } }

// WithTreeOrder assigns context parameters to profile-tree levels
// (default: identity). Larger domains lower in the tree yield smaller
// trees (Fig. 5/6).
func WithTreeOrder(order []int) Option {
	return func(o *options) { o.treeOrder = append([]int(nil), order...) }
}

// WithQueryCache enables the context query tree with the given capacity
// (0 = unbounded).
func WithQueryCache(capacity int) Option {
	return func(o *options) {
		o.useCache = true
		o.cacheCap = capacity
	}
}

// NewSystem assembles a system over an environment and a relation.
func NewSystem(env *Environment, rel *Relation, opts ...Option) (*System, error) {
	if env == nil {
		return nil, fmt.Errorf("contextpref: nil environment")
	}
	if rel == nil {
		return nil, fmt.Errorf("contextpref: nil relation")
	}
	o := options{metric: distance.Jaccard{}, combiner: relation.CombineMax}
	for _, opt := range opts {
		opt(&o)
	}
	tree, err := profiletree.New(env, o.treeOrder)
	if err != nil {
		return nil, err
	}
	if o.telemetry != nil {
		tree.SetMetrics(resolveMetrics(o.telemetry))
	}
	engine, err := query.NewEngine(tree, rel, o.metric, o.combiner)
	if err != nil {
		return nil, err
	}
	s := &System{
		env:      env,
		rel:      rel,
		tree:     tree,
		metric:   o.metric,
		combiner: o.combiner,
		engine:   engine,
	}
	if o.useCache {
		cache, err := querytree.New(env, o.treeOrder, o.cacheCap)
		if err != nil {
			return nil, err
		}
		cached, err := querytree.NewEngine(engine, cache)
		if err != nil {
			return nil, err
		}
		s.cache = cache
		s.cached = cached
	}
	return s, nil
}

// Env returns the system's context environment.
func (s *System) Env() *Environment { return s.env }

// Relation returns the relation queries rank.
func (s *System) Relation() *Relation { return s.rel }

// Tree returns the underlying profile tree (e.g. for size statistics).
func (s *System) Tree() *ProfileTree { return s.tree }

// Metric returns the context-resolution metric.
func (s *System) Metric() Metric { return s.metric }

// AddPreference inserts one contextual preference, detecting conflicts
// (Def. 6) during the profile-tree insertion; a *ConflictError reports
// the state and the clashing preference. Cached query results are
// invalidated, since rankings embed preference scores. With a persister
// attached, the mutation is journaled before it is applied.
func (s *System) AddPreference(p Preference) error {
	return s.AddPreferences(p)
}

// RemovePreference deletes the preference's entries from every context
// state its descriptor denotes (see profiletree.Tree.Delete for the
// shared-entry semantics) and invalidates cached query results. It
// returns how many entries were removed. With a persister attached, the
// removal is journaled before it is applied (replaying a removal that
// matched nothing is a harmless no-op).
func (s *System) RemovePreference(p Preference) (int, error) {
	return s.RemovePreferenceCtx(context.Background(), p)
}

// RemovePreferenceCtx is RemovePreference carrying the request context
// for span provenance: the removal is recorded as a
// system.remove_preference span with the journal write as a child.
func (s *System) RemovePreferenceCtx(ctx context.Context, p Preference) (int, error) {
	ctx, sp := tracing.Start(ctx, "system.remove_preference")
	defer sp.End()
	if err := s.health.Gate(); err != nil {
		sp.Fail(err)
		return 0, err
	}
	// Validate the descriptor up front so the post-journal delete
	// cannot fail.
	if _, err := p.Descriptor.Context(s.env); err != nil {
		sp.Fail(err)
		return 0, err
	}
	if s.persist != nil {
		if err := s.persist.PersistRemove(ctx, s.persistUser, p); err != nil {
			err = s.health.fail(&PersistError{Op: "remove", Err: err})
			sp.Fail(err)
			return 0, err
		}
	}
	removed, err := s.tree.Delete(p)
	if err != nil {
		sp.Fail(err)
		return removed, err
	}
	sp.SetInt("removed", int64(removed))
	if removed > 0 && s.cache != nil {
		s.cache.Invalidate()
	}
	return removed, nil
}

// AddPreferences inserts a batch atomically: the whole batch is
// validated first (against both the stored profile and the batch
// itself), then journaled as one durable unit when a persister is
// attached, and only then applied — so a failing batch never leaves a
// half-applied profile and replay of the journal reproduces exactly the
// committed state. Errors are annotated with the failing index
// ("preference 1: ...").
func (s *System) AddPreferences(ps ...Preference) error {
	return s.AddPreferencesCtx(context.Background(), ps...)
}

// AddPreferencesCtx is AddPreferences carrying the request context for
// span provenance: the batch is recorded as a system.add_preferences
// span (count attribute) with the journal append — typically the
// dominant cost, being an fsync — as a child span. The profile tree's
// Check is the batch's one validation; Apply stores what it checked.
func (s *System) AddPreferencesCtx(ctx context.Context, ps ...Preference) error {
	if len(ps) == 0 {
		return nil
	}
	ctx, sp := tracing.Start(ctx, "system.add_preferences")
	defer sp.End()
	sp.SetInt("count", int64(len(ps)))
	if err := s.health.Gate(); err != nil {
		sp.Fail(err)
		return err
	}
	batch, err := s.tree.Check(ps...)
	if err != nil {
		sp.Fail(err)
		return err
	}
	if s.persist != nil {
		if err := s.persist.PersistAdd(ctx, s.persistUser, ps...); err != nil {
			err = s.health.fail(&PersistError{Op: "add", Err: err})
			sp.Fail(err)
			return err
		}
	}
	// Refused only if the tree changed since the check, which the
	// caller's exclusive access rules out.
	if err := s.tree.Apply(batch); err != nil {
		sp.Fail(err)
		return err
	}
	if s.cache != nil {
		s.cache.Invalidate()
	}
	return nil
}

// AddProfile inserts every preference of a profile.
func (s *System) AddProfile(pr *Profile) error {
	return s.AddPreferences(pr.Preferences()...)
}

// LoadProfile parses the line encoding ("[desc] => clause : score" per
// line) and inserts every preference.
func (s *System) LoadProfile(text string) error {
	return s.LoadProfileCtx(context.Background(), text)
}

// LoadProfileCtx is LoadProfile carrying the request context for span
// provenance; the insertion rides on the system.add_preferences span.
//
// Each preference is parsed once and checked once, by the batch check
// of AddPreferencesCtx, which sees every error preference.ParseProfile
// would: bad syntax, invalid descriptors, and Def. 6 conflicts between
// lines. The text's own errors take precedence over the health gate and
// over conflicts with the stored profile, and are reported in
// ParseProfile's words, so on failure the text is parsed again with
// ParseProfile, and its error, if it has one, is the answer.
func (s *System) LoadProfileCtx(ctx context.Context, text string) error {
	ps, err := preference.ParseLines(text)
	if err == nil {
		if err = s.AddPreferencesCtx(ctx, ps...); err == nil {
			return nil
		}
	}
	if _, perr := preference.ParseProfile(s.env, text); perr != nil {
		return perr
	}
	return err
}

// NumPreferences returns how many preferences the system stores.
func (s *System) NumPreferences() int { return s.tree.NumPreferences() }

// NewState validates values against the environment.
func (s *System) NewState(values ...string) (State, error) {
	return s.env.NewState(values...)
}

// Resolve performs context resolution for one state: the stored
// preferences most relevant to it, per Section 4.4. ok is false when
// nothing covers the state.
func (s *System) Resolve(st State) (Candidate, bool, error) {
	return s.ResolveCtx(context.Background(), st)
}

// ResolveCtx is Resolve with cooperative cancellation: the profile-tree
// scan aborts once ctx is done, returning an error that wraps ctx.Err()
// (errors.Is-matchable against context.Canceled and
// context.DeadlineExceeded). Serving layers pass the request context so
// a deadline or a departed client stops resolution early.
func (s *System) ResolveCtx(ctx context.Context, st State) (Candidate, bool, error) {
	cand, _, ok, err := s.tree.ResolveCtx(ctx, st, s.metric)
	return cand, ok, err
}

// ResolveAll returns every stored state covering st, most relevant
// first — the paper's alternative of presenting all qualifying matches
// to the user instead of auto-selecting one.
func (s *System) ResolveAll(st State) ([]Candidate, error) {
	return s.ResolveAllCtx(context.Background(), st)
}

// ResolveAllCtx is ResolveAll with cooperative cancellation, on the
// same contract as ResolveCtx.
func (s *System) ResolveAllCtx(ctx context.Context, st State) ([]Candidate, error) {
	cands, _, err := s.tree.ResolveAllCtx(ctx, st, s.metric)
	return cands, err
}

// ExportProfile renders the stored preferences in the line encoding
// (one line per state and clause), suitable for LoadProfile.
func (s *System) ExportProfile() (string, error) {
	return s.tree.Encode()
}

// SuggestTreeOrder proposes a parameter-to-level assignment for a
// preference workload: parameters with fewer distinct used values go
// higher in the tree. It generalizes the paper's "larger domains lower"
// rule (Fig. 5/6) with the Fig. 6 (right) skew refinement. Pass the
// result to WithTreeOrder when building the System.
func SuggestTreeOrder(env *Environment, prefs []Preference) ([]int, error) {
	return profiletree.SuggestOrder(env, prefs)
}

// Query executes a contextual query. current is the implicit context
// (may be nil when the query carries an explicit extended descriptor).
// With a cache enabled, single-state queries are served from and stored
// into the context query tree.
func (s *System) Query(q Query, current State) (*Result, error) {
	return s.QueryCtx(context.Background(), q, current)
}

// QueryCtx is Query with cooperative cancellation: ctx is threaded into
// context resolution and the relation scans of Rank_CS, so a deadline
// or a departed client stops the evaluation early. The returned error
// wraps ctx.Err() and is errors.Is-matchable against context.Canceled
// and context.DeadlineExceeded. A cancelled query is never cached.
func (s *System) QueryCtx(ctx context.Context, q Query, current State) (*Result, error) {
	if s.cached != nil {
		res, _, err := s.cached.ExecuteCtx(ctx, q, current)
		return res, err
	}
	return s.engine.ExecuteCtx(ctx, q, current)
}

// QueryCached is Query that additionally reports whether the answer
// came from the context query tree.
func (s *System) QueryCached(q Query, current State) (*Result, bool, error) {
	if s.cached == nil {
		res, err := s.engine.Execute(q, current)
		return res, false, err
	}
	return s.cached.Execute(q, current)
}

// CacheStats returns the context query tree counters (zero Stats when
// no cache is configured).
func (s *System) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// Stats summarizes the profile-tree storage.
type Stats struct {
	// Preferences is the number of inserted preferences.
	Preferences int
	// States is the number of distinct context states stored.
	States int
	// Cells is the paper's cell count (internal cells + leaf entries).
	Cells int
	// Bytes is the modeled size with 8-byte pointers.
	Bytes int
}

// Stats returns the current storage statistics.
func (s *System) Stats() Stats {
	return Stats{
		Preferences: s.tree.NumPreferences(),
		States:      s.tree.NumPaths(),
		Cells:       s.tree.NumCells(),
		Bytes:       s.tree.Bytes(),
	}
}
