package contextpref

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"contextpref/internal/tracing"
)

// SafeSystem is one Directory user's System (see Directory.User),
// wrapped for concurrent use: reads (queries, resolution, stats) take
// a shared lock and writes (preference insertion) an exclusive one.
// Systems built with WithQueryCache take the exclusive lock on queries
// too, because serving a query mutates the cache.
//
// A handle can be "parked" to bound resident memory (see
// WithMaxResidentUsers): the materialized System — profile tree, query
// cache, engines — is dropped and the profile is kept in the handle
// itself as its records in binary form (see parked). The handle's
// identity never changes; the next access rebuilds the System
// transparently under the write lock. Parking is lossless: the records
// are an in-memory archive, never a disk reload.
type SafeSystem struct {
	mu      sync.RWMutex
	sys     *System // nil while parked
	caching bool

	// shard is atomic because the LRU touch on every access reads it
	// without the lock, while removal clears it under the lock.
	shard atomic.Pointer[dirShard] // owning shard; nil after the user is removed
	user  string                   // directory key
	// parked holds the profile while sys is nil, as its add and remove
	// records in order, each an op byte (journal.OpAdd or OpRemove)
	// followed by the preference's binary encoding
	// (preference.AppendBinary): descriptor values as (level, rank) in
	// their hierarchies, so an unpark decodes them without parsing
	// text. It holds no pointer, so the collector never scans it, and
	// its bytes are never written once appended.
	parked []byte
	// archive is the add-only parked form the resident system was last
	// rebuilt from, and archiveVersion the tree's Version() right after
	// that rebuild: while the version has not moved, the archive still
	// describes the profile exactly and tryPark re-parks it as-is instead
	// of re-encoding the tree. Kept only in shards with a resident bound.
	archive        []byte
	archiveVersion uint64
	// parkPersist/parkHealth are the hooks to re-attach on unpark;
	// meaningful only while parked.
	parkPersist Persister
	parkHealth  *Health
	// lastTouch is the shard-LRU stamp of the most recent access.
	lastTouch atomic.Int64
}

// touch stamps the handle for the owning shard's LRU clock.
func (s *SafeSystem) touch() {
	if sh := s.shard.Load(); sh != nil {
		s.lastTouch.Store(sh.clock.Add(1))
	}
}

// ensureLocked materializes a parked system; the caller must hold the
// write lock. The parked records were validated when first committed
// and checked against the environment when parked, so a rebuild
// failure indicates resource exhaustion — the error surfaces to the
// caller and the handle stays parked for a later retry. Each record is
// decoded, with no text to parse, and conflict-checked once (by
// InsertAll). In a shard with a resident bound, an add-only parked
// form is kept as the handle's archive for the next park. It returns
// the owning shard when this call materialized the system (nil when it
// was already resident), so the caller can admit it to the shard's
// resident set and run the eviction sweep after releasing the handle
// lock: touching the shard lock from under s.mu would acquire it
// against the declared shard -> SafeSystem order and deadlock against
// setPersister/setHealth, which hold the shard lock while attaching
// hooks to every handle (cpvet:lockorder caught this).
func (s *SafeSystem) ensureLocked() (*dirShard, error) {
	if s.sys != nil {
		return nil, nil
	}
	sh := s.shard.Load()
	if sh == nil {
		return nil, fmt.Errorf("contextpref: user %q was removed", s.user)
	}
	sys, err := sh.rebuild()
	if err != nil {
		return nil, fmt.Errorf("contextpref: loading user %q: %w", s.user, err)
	}
	sys.SetHealth(s.parkHealth)
	_, removes, err := applyParked(sys, s.parked)
	if err != nil {
		return nil, fmt.Errorf("contextpref: loading user %q: %w", s.user, err)
	}
	// Hooks re-attach only after the records applied, so the rebuild is
	// never re-journaled and never health-gated.
	sys.SetPersister(s.parkPersist, s.user)
	// A form with removes would outgrow the normalized form on every
	// cycle; it is dropped, and the next park re-encodes the tree.
	if sh.maxResident > 0 && !removes {
		s.archive, s.archiveVersion = s.parked, sys.tree.Version()
	}
	s.sys = sys
	s.parked = nil
	s.parkPersist, s.parkHealth = nil, nil
	sh.loads.Inc()
	sh.noteResident(1)
	return sh, nil
}

// rlock acquires the handle for reading, materializing a parked system
// first (which upgrades to the write lock for this access). It returns
// the matching unlock; on the materialize path the unlock also admits
// the handle to the shard's resident set and runs the eviction sweep,
// after the handle lock is released.
func (s *SafeSystem) rlock() (func(), error) {
	s.touch()
	s.mu.RLock()
	if s.sys != nil {
		return s.mu.RUnlock, nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	sh, err := s.ensureLocked()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if sh != nil {
		return func() { s.mu.Unlock(); sh.admit(s) }, nil
	}
	return s.mu.Unlock, nil
}

// wlock acquires the handle for writing, materializing a parked system
// first. It returns the matching unlock; on the materialize path the
// unlock also admits the handle to the shard's resident set and runs
// the eviction sweep, after the handle lock is released.
func (s *SafeSystem) wlock() (func(), error) {
	s.touch()
	s.mu.Lock()
	sh, err := s.ensureLocked()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if sh != nil {
		return func() { s.mu.Unlock(); sh.admit(s) }, nil
	}
	return s.mu.Unlock, nil
}

// Resident reports whether the system is materialized (not parked).
func (s *SafeSystem) Resident() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sys != nil
}

// residentHint is Resident without blocking: eviction scans use it to
// skip parked entries, tolerating staleness (tryPark re-checks under
// the lock).
func (s *SafeSystem) residentHint() bool {
	if s.mu.TryRLock() {
		resident := s.sys != nil
		s.mu.RUnlock()
		return resident
	}
	// Locked by someone — it is in active use; not an eviction victim.
	return false
}

// tryPark parks an idle resident system: the hooks are detached into
// the parked fields and the System is dropped. The profile is kept as
// the archive it was rebuilt from when the tree has not changed since;
// otherwise the tree's stored entries are encoded, one add record per
// entry (see parkedForm). It refuses without blocking if the handle is
// in use (TryLock fails), already parked, removed from its directory,
// or its encoding fails; it reports whether it parked. Counter and
// resident-set updates are the caller's.
func (s *SafeSystem) tryPark() bool {
	if !s.mu.TryLock() {
		return false
	}
	defer s.mu.Unlock()
	if s.sys == nil || s.shard.Load() == nil {
		return false
	}
	parked := s.archive
	if parked == nil || s.sys.tree.Version() != s.archiveVersion {
		var err error
		if parked, err = s.sys.parkedForm(); err != nil {
			return false
		}
	}
	s.parked = parked
	s.archive = nil
	s.parkPersist = s.sys.persist
	s.parkHealth = s.sys.health
	s.sys = nil
	return true
}

// detach quiesces the handle for removal: in-flight mutations finish
// (their journal records land before the caller's drop record), the
// persister detaches, and the handle stops counting against its shard.
// It reports whether the system was resident.
func (s *SafeSystem) detach() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	resident := s.sys != nil
	if resident {
		s.sys.SetPersister(nil, "")
	} else {
		s.parkPersist = nil
	}
	s.shard.Store(nil)
	return resident
}

// reattach undoes detach after a failed drop append: the handle
// rejoins its shard with the persister re-attached, so memory and
// replay agree the user still exists.
func (s *SafeSystem) reattach(sh *dirShard, p Persister, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shard.Store(sh)
	if s.sys != nil {
		s.sys.SetPersister(p, name)
	} else {
		s.parkPersist = p
	}
}

// appendParked folds a run of validated records of this handle's user,
// in parked form, into it: applied in order if the system is resident,
// appended to the parked form otherwise. On error it returns how many
// records it applied before the one that failed. Shared by directory
// replay and the replication apply path.
func (s *SafeSystem) appendParked(run []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sys != nil {
		n, _, err := applyParked(s.sys, run)
		return n, err
	}
	s.parked = append(s.parked, run...)
	return 0, nil
}

// AddPreference inserts one preference under the write lock.
func (s *SafeSystem) AddPreference(p Preference) error {
	return s.AddPreferencesCtx(context.Background(), p)
}

// AddPreferences inserts a batch under the write lock.
func (s *SafeSystem) AddPreferences(ps ...Preference) error {
	return s.AddPreferencesCtx(context.Background(), ps...)
}

// AddPreferencesCtx inserts a batch under the write lock, carrying the
// request context for span provenance. The system.add_preferences span
// starts inside the lock; write-lock contention shows up as the gap
// between the root span and it.
func (s *SafeSystem) AddPreferencesCtx(ctx context.Context, ps ...Preference) error {
	unlock, err := s.wlock()
	if err != nil {
		return err
	}
	defer unlock()
	return s.sys.AddPreferencesCtx(ctx, ps...)
}

// RemovePreference deletes a preference under the write lock.
func (s *SafeSystem) RemovePreference(p Preference) (int, error) {
	return s.RemovePreferenceCtx(context.Background(), p)
}

// RemovePreferenceCtx deletes a preference under the write lock,
// carrying the request context for span provenance.
func (s *SafeSystem) RemovePreferenceCtx(ctx context.Context, p Preference) (int, error) {
	unlock, err := s.wlock()
	if err != nil {
		return 0, err
	}
	defer unlock()
	return s.sys.RemovePreferenceCtx(ctx, p)
}

// LoadProfile parses and inserts a profile under the write lock.
func (s *SafeSystem) LoadProfile(text string) error {
	return s.LoadProfileCtx(context.Background(), text)
}

// LoadProfileCtx parses and inserts a profile under the write lock,
// carrying the request context for span provenance.
func (s *SafeSystem) LoadProfileCtx(ctx context.Context, text string) error {
	unlock, err := s.wlock()
	if err != nil {
		return err
	}
	defer unlock()
	return s.sys.LoadProfileCtx(ctx, text)
}

// Query executes a contextual query; shared lock unless caching.
func (s *SafeSystem) Query(q Query, current State) (*Result, error) {
	return s.QueryCtx(context.Background(), q, current)
}

// QueryCtx executes a contextual query with cooperative cancellation
// (see System.QueryCtx); shared lock unless caching. Lock acquisition
// itself is not interruptible — the deadline takes effect once the
// evaluation starts scanning.
func (s *SafeSystem) QueryCtx(ctx context.Context, q Query, current State) (*Result, error) {
	ctx, sp := tracing.Start(ctx, "system.query")
	defer sp.End()
	var unlock func()
	var err error
	if s.caching {
		unlock, err = s.wlock()
	} else {
		unlock, err = s.rlock()
	}
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	defer unlock()
	res, err := s.sys.QueryCtx(ctx, q, current)
	sp.Fail(err)
	return res, err
}

// Resolve performs context resolution under the shared lock.
func (s *SafeSystem) Resolve(st State) (Candidate, bool, error) {
	return s.ResolveCtx(context.Background(), st)
}

// ResolveCtx performs cancellable context resolution under the shared
// lock (see System.ResolveCtx).
func (s *SafeSystem) ResolveCtx(ctx context.Context, st State) (Candidate, bool, error) {
	ctx, sp := tracing.Start(ctx, "system.resolve")
	defer sp.End()
	unlock, err := s.rlock()
	if err != nil {
		sp.Fail(err)
		return Candidate{}, false, err
	}
	defer unlock()
	cand, ok, err := s.sys.ResolveCtx(ctx, st)
	sp.Fail(err)
	return cand, ok, err
}

// ResolveAll lists covering states under the shared lock.
func (s *SafeSystem) ResolveAll(st State) ([]Candidate, error) {
	return s.ResolveAllCtx(context.Background(), st)
}

// ResolveAllCtx lists covering states with cooperative cancellation
// under the shared lock (see System.ResolveAllCtx).
func (s *SafeSystem) ResolveAllCtx(ctx context.Context, st State) ([]Candidate, error) {
	ctx, sp := tracing.Start(ctx, "system.resolve_all")
	defer sp.End()
	unlock, err := s.rlock()
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	defer unlock()
	cands, err := s.sys.ResolveAllCtx(ctx, st)
	sp.Fail(err)
	return cands, err
}

// NewState validates a context state (no lock needed: the environment
// is immutable, and a Directory-managed handle validates against the
// directory's shared environment whether or not it is parked).
func (s *SafeSystem) NewState(values ...string) (State, error) {
	if sh := s.shard.Load(); sh != nil {
		return sh.d.env.NewState(values...)
	}
	s.mu.RLock()
	sys := s.sys
	s.mu.RUnlock()
	if sys == nil {
		return nil, fmt.Errorf("contextpref: user %q was removed", s.user)
	}
	return sys.NewState(values...)
}

// Stats snapshots the storage statistics under the shared lock. A
// parked system is materialized first; if that fails, zero stats are
// returned.
func (s *SafeSystem) Stats() Stats {
	unlock, err := s.rlock()
	if err != nil {
		return Stats{}
	}
	defer unlock()
	return s.sys.Stats()
}

// ExportProfile renders the stored preferences under the shared lock.
func (s *SafeSystem) ExportProfile() (string, error) {
	unlock, err := s.rlock()
	if err != nil {
		return "", err
	}
	defer unlock()
	return s.sys.ExportProfile()
}

// NumPreferences returns the stored preference count (0 if a parked
// system fails to materialize).
func (s *SafeSystem) NumPreferences() int {
	unlock, err := s.rlock()
	if err != nil {
		return 0
	}
	defer unlock()
	return s.sys.NumPreferences()
}
