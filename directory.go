package contextpref

import (
	"context"
	"fmt"
	"sort"

	"contextpref/internal/telemetry"
	"contextpref/internal/tracing"
)

// Directory manages per-user preference profiles over one shared
// context environment and relation — the deployment shape of the
// paper's system, where every user owns a profile but the database and
// the context model are common (the usability study's 12 default
// profiles are exactly per-user seeds). It is safe for concurrent use.
//
// Internally the directory is split into one or more shards (see
// WithShards and shard.go): each user belongs to exactly one shard,
// selected by a stable hash of the user name, and each shard carries
// its own lock, persister, and health tracker. The default single
// shard reproduces the original single-lock, single-journal behavior
// exactly.
type Directory struct {
	env  *Environment
	rel  *Relation
	opts []Option
	// defaults, when set, seeds each new user's profile.
	defaults func(user string) ([]Preference, error)
	// usersCreated/usersDropped, when set via WithDirectoryTelemetry,
	// count profile lifecycle events; nil handles are no-ops.
	usersCreated *telemetry.Counter
	usersDropped *telemetry.Counter
	// reg, when set via WithDirectoryTelemetry, also feeds the
	// per-shard instruments built in initShards.
	reg *TelemetryRegistry

	// numShards/maxResident are option inputs; shards is built once by
	// initShards and never reassigned.
	numShards   int
	maxResident int
	shards      []*dirShard
	// cachedOpts records whether d.opts enable the query cache, so
	// parked entries know their locking discipline without
	// materializing a System first.
	cachedOpts bool
}

// DirectoryOption configures a Directory.
type DirectoryOption func(*Directory)

// WithSystemOptions forwards options (metric, combiner, tree order,
// cache) to every per-user System.
func WithSystemOptions(opts ...Option) DirectoryOption {
	return func(d *Directory) { d.opts = append([]Option(nil), opts...) }
}

// WithDefaultProfile seeds each new user's profile with the
// preferences the function returns — e.g. the demographic defaults of
// the usability study. A nil-preferences, nil-error return seeds
// nothing.
func WithDefaultProfile(f func(user string) ([]Preference, error)) DirectoryOption {
	return func(d *Directory) { d.defaults = f }
}

// NewDirectory creates an empty directory over a shared environment
// and relation.
func NewDirectory(env *Environment, rel *Relation, opts ...DirectoryOption) (*Directory, error) {
	if env == nil {
		return nil, fmt.Errorf("contextpref: nil environment")
	}
	if rel == nil {
		return nil, fmt.Errorf("contextpref: nil relation")
	}
	d := &Directory{env: env, rel: rel}
	for _, o := range opts {
		o(d)
	}
	var so options
	for _, o := range d.opts {
		o(&so)
	}
	d.cachedOpts = so.useCache
	d.initShards()
	return d, nil
}

// Env returns the shared context environment.
func (d *Directory) Env() *Environment { return d.env }

// Relation returns the shared relation.
func (d *Directory) Relation() *Relation { return d.rel }

// User returns the named user's system, creating (and seeding) it on
// first access. User names must be non-empty. With a persister
// attached, the creation and the seed preferences are journaled, so a
// restarted directory recovers the user exactly.
func (d *Directory) User(name string) (*SafeSystem, error) {
	return d.UserCtx(context.Background(), name)
}

// UserCtx is User carrying the request context for span provenance:
// first-access creation (journaled creation plus default-profile
// seeding) is recorded as a directory.create_user span; the fast path
// for an existing user adds no span.
func (d *Directory) UserCtx(ctx context.Context, name string) (*SafeSystem, error) {
	if name == "" {
		return nil, fmt.Errorf("contextpref: empty user name")
	}
	sh := d.shardFor(name)
	sh.mu.RLock()
	sys, ok := sh.systems[name]
	sh.mu.RUnlock()
	if ok {
		return sys, nil
	}
	sh.mu.Lock()
	sys, err := func() (*SafeSystem, error) {
		defer sh.mu.Unlock()
		if sys, ok := sh.systems[name]; ok {
			return sys, nil
		}
		ctx, sp := tracing.Start(ctx, "directory.create_user")
		defer sp.End()
		inner, err := NewSystem(d.env, d.rel, d.opts...)
		if err != nil {
			sp.Fail(err)
			return nil, err
		}
		inner.SetHealth(sh.health)
		// Creating a user is a mutation: fail fast while degraded so no
		// half-created user lingers in memory without a journal record.
		if err := sh.health.Gate(); err != nil {
			sp.Fail(err)
			return nil, err
		}
		// Check the seed before anything is journaled: a seed that
		// cannot apply must leave no creation record behind, or
		// replay would resurrect a user that every access refuses.
		var prefs []Preference
		if d.defaults != nil {
			if prefs, err = d.defaults(name); err == nil {
				err = inner.tree.CheckInsert(prefs...)
			}
			if err != nil {
				sp.Fail(err)
				return nil, fmt.Errorf("contextpref: seeding user %q: %w", name, err)
			}
		}
		// Journal the creation before the seeds so replay re-creates
		// the user first; attach the persister before seeding so the
		// seed preferences are journaled too.
		if sh.persist != nil {
			if err := sh.persist.PersistCreateUser(ctx, name); err != nil {
				err = sh.health.fail(&PersistError{Op: "create user", Err: err})
				sp.Fail(err)
				return nil, err
			}
			inner.SetPersister(sh.persist, name)
		}
		if err := inner.AddPreferencesCtx(ctx, prefs...); err != nil {
			sp.Fail(err)
			return nil, fmt.Errorf("contextpref: seeding user %q: %w", name, err)
		}
		sys := &SafeSystem{sys: inner, caching: d.cachedOpts, user: name}
		sys.shard.Store(sh)
		sys.lastTouch.Store(sh.clock.Add(1))
		sh.systems[name] = sys
		sh.residents[sys] = struct{}{}
		sh.noteResident(1)
		return sys, nil
	}()
	if err != nil {
		return nil, err
	}
	d.usersCreated.Inc()
	sh.noteUsers()
	sh.maybeEvict(sys)
	return sys, nil
}

// Lookup returns the named user's system without creating it.
func (d *Directory) Lookup(name string) (*SafeSystem, bool) {
	if name == "" {
		return nil, false
	}
	sh := d.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sys, ok := sh.systems[name]
	return sys, ok
}

// RemoveUser deletes a user's profile and journals the drop. The
// removed system is detached from the persister before the drop record
// is written, so a concurrent writer holding the old handle cannot
// journal mutations that would resurrect the user on replay.
func (d *Directory) RemoveUser(name string) (bool, error) {
	return d.RemoveUserCtx(context.Background(), name)
}

// RemoveUserCtx is RemoveUser carrying the request context for span
// provenance (the drop record's journal append becomes a child span).
//
// A failed drop append leaves the user in place: the system is
// reinserted into the shard with its persister re-attached, so the
// in-memory state and a post-restart replay agree that the user still
// exists. (Before this, the user vanished from memory but was
// resurrected by replay — the two states diverged.) The shard degrades
// read-only and the error reports that; the caller can retry once the
// shard recovers.
func (d *Directory) RemoveUserCtx(ctx context.Context, name string) (bool, error) {
	if name == "" {
		return false, nil
	}
	sh := d.shardFor(name)
	sh.mu.Lock()
	health := sh.health
	if err := health.Gate(); err != nil {
		sh.mu.Unlock()
		return false, err
	}
	sys, ok := sh.systems[name]
	delete(sh.systems, name)
	delete(sh.residents, sys)
	persist := sh.persist
	sh.mu.Unlock()
	if !ok {
		return false, nil
	}
	// Waits for in-flight mutations on the removed system: their
	// journal records land before our drop record, so replay nets out
	// to "user gone" exactly like the in-memory state.
	wasResident := sys.detach()
	if persist != nil {
		if err := persist.PersistDropUser(ctx, name); err != nil {
			sys.reattach(sh, persist, name)
			sh.mu.Lock()
			if _, exists := sh.systems[name]; !exists {
				sh.systems[name] = sys
				// Residency cannot change while detached: a parked handle
				// without a shard refuses to load, and eviction only takes
				// handles from the set.
				if wasResident {
					sh.residents[sys] = struct{}{}
				}
			}
			sh.mu.Unlock()
			sh.noteUsers()
			return false, health.fail(&PersistError{Op: "drop user", Err: err})
		}
	}
	if wasResident {
		sh.noteResident(-1)
	}
	d.usersDropped.Inc()
	sh.noteUsers()
	return true, nil
}

// Users lists the known user names, sorted.
func (d *Directory) Users() []string {
	var out []string
	for _, sh := range d.shards {
		sh.mu.RLock()
		for name := range sh.systems {
			out = append(out, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}
