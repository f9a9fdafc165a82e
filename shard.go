package contextpref

// This file is the Directory's sharding layer. Users are routed to one
// of N fault-isolated shards by a stable hash of the user ID: each
// shard owns its own lock, its own map of per-user systems, its own
// Persister (in the serving binary: its own journal segment under
// <store>/shard-NNN/) and its own Health tracker, so a persistence
// failure in one shard degrades only that shard to read-only while the
// others keep accepting mutations. The hash is deterministic across
// restarts and across processes — it decides which journal segment
// owns a user, so changing it would orphan every existing segment
// (TestUserShardGolden pins it).
//
// Shards also bound resident memory: per-user systems can be "parked"
// — the materialized profile tree is dropped and the profile is kept
// as its compact journal-record form inside the SafeSystem handle (see
// concurrent.go) — and WithMaxResidentUsers evicts the least-recently
// used idle systems over the cap. Parking is lossless (the records are
// an in-memory archive, not a disk reload) and only ever applies to
// cleanly-persisted state: the validate → persist → apply ordering
// means everything applied in memory is already journaled, and shards
// whose health is degraded are never evicted from at all.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"contextpref/internal/telemetry"
)

// fnv64Offset/fnv64Prime are the FNV-1a 64-bit parameters. The hash is
// inlined (rather than hash/fnv) so the routing function is visibly
// self-contained: this exact fold is pinned by the shard-routing golden
// test and must never change.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// UserShard returns the shard index owning the given user ID in a
// directory of `shards` shards: FNV-1a over the user name, modulo the
// shard count. It is a pure function of its inputs — stable across
// restarts, processes, and architectures — because the assignment
// decides which journal segment holds the user's records.
func UserShard(user string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv64Offset
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= fnv64Prime
	}
	return int(h % uint64(shards))
}

// WithShards splits the directory into n fault-isolated shards
// (default 1: one lock, one journal segment). Each shard gets its own
// lock, Health tracker slot, and Persister slot; see
// SetShardPersister/SetShardHealth. n < 1 is treated as 1.
func WithShards(n int) DirectoryOption {
	return func(d *Directory) { d.numShards = n }
}

// WithMaxResidentUsers bounds the number of materialized per-user
// systems across the directory; 0 (the default) means unlimited. Over
// the bound, the least-recently-used idle systems are parked: their
// profile tree and query cache are dropped and the profile is kept in
// its compact record form, rebuilt transparently on next access. The
// bound is split evenly across shards and enforced per shard.
func WithMaxResidentUsers(n int) DirectoryOption {
	return func(d *Directory) { d.maxResident = n }
}

// dirShard is one fault domain of a sharded Directory: a map of
// per-user systems under its own lock, with its own persister and
// health tracker so its failures stay its own.
type dirShard struct {
	d  *Directory
	id int

	mu      sync.RWMutex
	systems map[string]*SafeSystem
	persist Persister
	health  *Health

	// clock is the shard's LRU clock: every access to a per-user system
	// stamps the handle with clock.Add(1), and eviction parks the
	// minimum stamp first.
	clock atomic.Int64
	// resident counts materialized (non-parked) systems in this shard.
	resident atomic.Int64
	// residents is the set of materialized handles, the only candidates
	// eviction scans; guarded by mu. It is updated only where no handle
	// lock is held (creation, admit, the eviction loop and the drop
	// paths), so the shard -> SafeSystem order holds. Between a
	// handle's rebuild and its admit, resident already counts it and
	// the set does not yet hold it.
	residents map[*SafeSystem]struct{}
	// maxResident, when positive, is this shard's share of the
	// directory-wide resident bound.
	maxResident int64

	// Per-shard telemetry handles (nil-safe no-ops without a registry).
	usersG    *telemetry.Gauge
	residentG *telemetry.Gauge
	evictions *telemetry.Counter
	loads     *telemetry.Counter
}

// initShards builds the shard array; called once from NewDirectory
// after all options have applied.
func (d *Directory) initShards() {
	n := d.numShards
	if n < 1 {
		n = 1
	}
	d.numShards = n
	perShard := int64(0)
	if d.maxResident > 0 {
		perShard = int64((d.maxResident + n - 1) / n)
	}
	d.shards = make([]*dirShard, n)
	for i := range d.shards {
		d.shards[i] = &dirShard{
			d:           d,
			id:          i,
			systems:     make(map[string]*SafeSystem),
			residents:   make(map[*SafeSystem]struct{}),
			maxResident: perShard,
		}
	}
	if d.reg != nil {
		usersV := d.reg.GaugeVec("cp_shard_users",
			"User profiles known to each shard (resident or parked).", "shard")
		residentV := d.reg.GaugeVec("cp_shard_resident_users",
			"Materialized per-user systems resident in each shard.", "shard")
		evictionsV := d.reg.CounterVec("cp_shard_evictions_total",
			"Idle per-user systems parked by the resident-memory bound, per shard.", "shard")
		loadsV := d.reg.CounterVec("cp_shard_loads_total",
			"Parked per-user systems rebuilt on access, per shard.", "shard")
		for i, sh := range d.shards {
			label := strconv.Itoa(i)
			sh.usersG = usersV.With(label)
			sh.residentG = residentV.With(label)
			sh.evictions = evictionsV.With(label)
			sh.loads = loadsV.With(label)
		}
	}
}

// NumShards returns the directory's shard count (at least 1).
func (d *Directory) NumShards() int { return len(d.shards) }

// ShardOf returns the shard index owning the user.
func (d *Directory) ShardOf(user string) int { return UserShard(user, len(d.shards)) }

// shardFor returns the shard owning the user.
func (d *Directory) shardFor(user string) *dirShard {
	return d.shards[UserShard(user, len(d.shards))]
}

// SetShardPersister attaches a persistence hook to one shard: its
// users persist under their user names into that shard's journal
// segment. Attach after ReplayShard. Out-of-range indexes are ignored.
func (d *Directory) SetShardPersister(shard int, p Persister) {
	if shard < 0 || shard >= len(d.shards) {
		return
	}
	d.shards[shard].setPersister(p)
}

// SetShardHealth attaches a health tracker to one shard; its mutations
// are gated on it, and its persistence failures degrade only it.
// Out-of-range indexes are ignored.
func (d *Directory) SetShardHealth(shard int, h *Health) {
	if shard < 0 || shard >= len(d.shards) {
		return
	}
	d.shards[shard].setHealth(h)
}

// ShardHealth returns the health tracker of one shard (nil if none is
// attached or the index is out of range). A nil *Health is always
// healthy.
func (d *Directory) ShardHealth(shard int) *Health {
	if shard < 0 || shard >= len(d.shards) {
		return nil
	}
	sh := d.shards[shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.health
}

// ShardHealths returns every shard's health tracker, indexed by shard.
func (d *Directory) ShardHealths() []*Health {
	out := make([]*Health, len(d.shards))
	for i := range d.shards {
		out[i] = d.ShardHealth(i)
	}
	return out
}

// ShardUsers lists the user names owned by one shard, sorted. An
// out-of-range index returns nil.
func (d *Directory) ShardUsers(shard int) []string {
	if shard < 0 || shard >= len(d.shards) {
		return nil
	}
	sh := d.shards[shard]
	sh.mu.RLock()
	out := make([]string, 0, len(sh.systems))
	for name := range sh.systems {
		out = append(out, name)
	}
	sh.mu.RUnlock()
	sort.Strings(out)
	return out
}

// NumUsers counts the user profiles known to the directory (resident
// or parked).
func (d *Directory) NumUsers() int {
	n := 0
	for _, sh := range d.shards {
		sh.mu.RLock()
		n += len(sh.systems)
		sh.mu.RUnlock()
	}
	return n
}

// ResidentUsers counts the materialized (non-parked) per-user systems
// across all shards.
func (d *Directory) ResidentUsers() int {
	n := int64(0)
	for _, sh := range d.shards {
		n += sh.resident.Load()
	}
	return int(n)
}

func (sh *dirShard) setPersister(p Persister) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.persist = p
	for _, sys := range sh.systems {
		sys.setPersister(p)
	}
}

func (sh *dirShard) setHealth(h *Health) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.health = h
	for _, sys := range sh.systems {
		sys.setHealth(h)
	}
}

// currentHealth reads the shard's health tracker.
func (sh *dirShard) currentHealth() *Health {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.health
}

// rebuild constructs an empty per-user System with the directory's
// shared environment, relation, and options — the unpark path uses it
// and then replays the parked records into it.
func (sh *dirShard) rebuild() (*System, error) {
	return NewSystem(sh.d.env, sh.d.rel, sh.d.opts...)
}

// noteUsers refreshes the shard's user-count gauge; call after the map
// changes, without the shard lock held.
func (sh *dirShard) noteUsers() {
	sh.mu.RLock()
	n := len(sh.systems)
	sh.mu.RUnlock()
	sh.usersG.Set(float64(n))
}

// noteResident adjusts the shard's resident count and gauge.
func (sh *dirShard) noteResident(delta int64) {
	sh.residentG.Set(float64(sh.resident.Add(delta)))
}

// parkedEntry returns the shard's handle for a user, creating an empty
// parked one if the user is unknown — the record-accumulation path
// replay and the replication apply loop share, which never
// materializes a profile tree.
func (sh *dirShard) parkedEntry(name string) (*SafeSystem, error) {
	if name == "" {
		return nil, fmt.Errorf("contextpref: empty user name")
	}
	sh.mu.RLock()
	sys, ok := sh.systems[name]
	sh.mu.RUnlock()
	if ok {
		return sys, nil
	}
	sh.mu.Lock()
	if sys, ok := sh.systems[name]; ok {
		sh.mu.Unlock()
		return sys, nil
	}
	// A replayed name is a substring of the journal text it was parsed
	// from; the handle and the map key keep a copy of their own.
	name = strings.Clone(name)
	sys = &SafeSystem{user: name, caching: sh.d.cachedOpts, parkPersist: sh.persist, parkHealth: sh.health}
	sys.shard.Store(sh)
	sh.systems[name] = sys
	sh.mu.Unlock()
	sh.d.usersCreated.Inc()
	sh.noteUsers()
	return sys, nil
}

// dropReplayed deletes a user for a replayed drop record; a user the
// shard does not know is nothing to drop.
func (sh *dirShard) dropReplayed(name string) {
	sh.mu.Lock()
	sys, ok := sh.systems[name]
	delete(sh.systems, name)
	delete(sh.residents, sys)
	sh.mu.Unlock()
	if ok {
		if sys.detach() {
			sh.noteResident(-1)
		}
		sh.d.usersDropped.Inc()
		sh.noteUsers()
	}
}

// admit records a handle that has just materialized in the resident
// set — unless it left the shard meanwhile — and runs the eviction
// sweep. It runs from the unlock rlock/wlock return, after the handle
// lock is released.
func (sh *dirShard) admit(s *SafeSystem) {
	sh.markResident(s)
	sh.maybeEvict(s)
}

// markResident adds a resident handle to the resident set if the shard
// still owns it.
func (sh *dirShard) markResident(s *SafeSystem) {
	sh.mu.Lock()
	if sh.systems[s.user] == s {
		sh.residents[s] = struct{}{}
	}
	sh.mu.Unlock()
}

// maybeEvict parks least-recently-used idle systems until the shard is
// back under its resident bound. It only ever uses TryLock on victim
// handles, so it cannot deadlock against readers or against the caller
// (which may itself hold a handle lock); a victim that is busy — or
// whose snapshot fails — is skipped this round. Degraded shards are
// never evicted from: eviction is reserved for cleanly-persisted
// state, and a degraded shard's journal is not trusted.
func (sh *dirShard) maybeEvict(keep *SafeSystem) {
	if sh.maxResident <= 0 || sh.currentHealth().Degraded() {
		return
	}
	for sh.resident.Load() > sh.maxResident {
		victim := sh.takeColdest(keep)
		if victim == nil {
			return
		}
		if !victim.tryPark() {
			sh.markResident(victim) // still resident: return it to the set
			return
		}
		sh.evictions.Inc()
		sh.noteResident(-1)
	}
}

// takeColdest removes and returns the idle resident system with the
// oldest LRU stamp, excluding keep (the handle the caller is actively
// using). Taking the victim out of the set before parking it means no
// concurrent sweep can pick it too, and a handle that rematerializes
// right after the park is simply admitted again.
func (sh *dirShard) takeColdest(keep *SafeSystem) *SafeSystem {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var victim *SafeSystem
	var oldest int64
	for sys := range sh.residents {
		if sys == keep || !sys.residentHint() {
			continue
		}
		if stamp := sys.lastTouch.Load(); victim == nil || stamp < oldest {
			victim, oldest = sys, stamp
		}
	}
	delete(sh.residents, victim)
	return victim
}
