package contextpref

// This file is the durability seam between the in-memory preference
// database and the append-only journal of internal/journal: a Persister
// hook that System/SafeSystem/Directory invoke on every committed
// mutation, the journal-backed implementation of that hook, and the
// replay/snapshot helpers a server needs to recover full state after a
// crash and to compact the log.
//
// Mutation ordering is validate → persist → apply: a mutation is first
// validated against the in-memory state (so applying it cannot fail),
// then journaled (fsync'd), and only then applied. A persist failure
// therefore leaves the in-memory state untouched and surfaces as a
// *PersistError; a crash after the journal write is recovered by
// replay, which re-applies the already-validated record.
//
// Directory replay is lazy: records are parsed (so a corrupt or
// foreign journal still fails loudly at startup) but accumulated in
// parked per-user handles instead of being applied to materialized
// profile trees — a directory with a million journaled users starts
// with zero resident trees, and each profile is built on first access.

import (
	"context"
	"fmt"
	"strings"

	"contextpref/internal/journal"
)

// Persister observes committed profile mutations so they can be made
// durable. user is the Directory key of the profile that changed; a
// bare System persists under the name given to SetPersister. The
// context carries request-scoped observability (tracing spans,
// deadlines are advisory — a started persist must complete or roll
// back whole regardless of cancellation). Implementations must be safe
// for concurrent use.
type Persister interface {
	// PersistCreateUser records the creation of a user profile.
	PersistCreateUser(ctx context.Context, user string) error
	// PersistAdd records an added preference batch. The batch must be
	// made durable atomically (all or nothing).
	PersistAdd(ctx context.Context, user string, ps ...Preference) error
	// PersistRemove records a removed preference.
	PersistRemove(ctx context.Context, user string, p Preference) error
	// PersistDropUser records the deletion of a user profile.
	PersistDropUser(ctx context.Context, user string) error
}

// PersistError wraps a failure to persist a mutation. The in-memory
// state was not modified; callers can safely retry or surface the
// storage failure (HTTP servers map it to 503).
type PersistError struct {
	// Op names the failed operation ("add", "remove", "create user",
	// "drop user").
	Op string
	// Err is the underlying storage error.
	Err error
}

// Error implements error.
func (e *PersistError) Error() string {
	return fmt.Sprintf("contextpref: persisting %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying storage error to errors.Is/As.
func (e *PersistError) Unwrap() error { return e.Err }

// JournalPersister adapts a *journal.Journal to the Persister
// interface, encoding each mutation with the preference line codec.
type JournalPersister struct {
	j *journal.Journal
}

// NewJournalPersister wraps an open journal.
func NewJournalPersister(j *journal.Journal) *JournalPersister {
	return &JournalPersister{j: j}
}

// Journal returns the wrapped journal.
func (jp *JournalPersister) Journal() *journal.Journal { return jp.j }

// PersistCreateUser appends a user-created record.
func (jp *JournalPersister) PersistCreateUser(ctx context.Context, user string) error {
	return jp.j.AppendCtx(ctx, journal.Record{Op: journal.OpUser, User: user})
}

// PersistAdd appends one add-record per preference as a single fsync'd
// batch.
func (jp *JournalPersister) PersistAdd(ctx context.Context, user string, ps ...Preference) error {
	recs := make([]journal.Record, len(ps))
	for i, p := range ps {
		recs[i] = journal.Record{Op: journal.OpAdd, User: user, Line: FormatPreference(p)}
	}
	return jp.j.AppendCtx(ctx, recs...)
}

// PersistRemove appends a remove-record.
func (jp *JournalPersister) PersistRemove(ctx context.Context, user string, p Preference) error {
	return jp.j.AppendCtx(ctx, journal.Record{Op: journal.OpRemove, User: user, Line: FormatPreference(p)})
}

// PersistDropUser appends a user-dropped record.
func (jp *JournalPersister) PersistDropUser(ctx context.Context, user string) error {
	return jp.j.AppendCtx(ctx, journal.Record{Op: journal.OpDrop, User: user})
}

// SetPersister attaches a persistence hook to the system; subsequent
// mutations are persisted under the given user name before they are
// applied. Attach the hook after replaying recovered records, never
// before, or replay would re-journal its own input. A nil persister
// detaches the hook.
func (s *System) SetPersister(p Persister, user string) {
	s.persist = p
	s.persistUser = user
}

// setPersister attaches the owning shard's persistence hook under the
// write lock, persisting under the handle's user name; on a parked
// handle it is kept aside and re-attached when the system
// materializes.
func (s *SafeSystem) setPersister(p Persister) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sys == nil {
		s.parkPersist = p
		return
	}
	s.sys.SetPersister(p, s.user)
}

// SetPersister attaches one persistence hook to every shard of the
// directory: every existing and future per-user system persists under
// its user name, and RemoveUser journals profile drops. Attach after
// Replay. Sharded deployments attach an independent persister per
// shard (one per journal segment) with SetShardPersister instead.
func (d *Directory) SetPersister(p Persister) {
	for _, sh := range d.shards {
		sh.setPersister(p)
	}
}

// Replay applies recovered journal records to a single-user system,
// ignoring the records' user field. Call before SetPersister. Replay of
// a journal produced by this package cannot conflict; an error
// indicates a corrupt or foreign journal.
func (s *System) Replay(recs []journal.Record) error {
	for i, r := range recs {
		if err := replayOne(s, r); err != nil {
			return fmt.Errorf("contextpref: replaying record %d: %w", i, err)
		}
	}
	return nil
}

// Replay applies recovered journal records to the directory, recreating
// per-user profiles exactly as journaled: replayed users are created
// without default-profile seeding, because their seed preferences were
// themselves journaled when the user was first created. Call before
// SetPersister.
//
// Replay is lazy: each record is parsed and validated syntactically,
// then accumulated in the user's parked handle; no profile tree is
// materialized until the user is first accessed. A record that fails
// to apply at that point (impossible for a journal this package wrote)
// surfaces from the access that triggered the load.
func (d *Directory) Replay(recs []journal.Record) error {
	return d.replay(-1, recs)
}

// ReplayShard is Replay for one shard's journal segment, and also the
// replication follower's apply path for that segment's stream. The
// records bypass the health gate and the persister: they are already
// durable in the local segment (recovered from it, or grafted by
// journal.AppendReplicated before this is called) and were validated
// when first committed, and a follower's role gate would otherwise
// reject its own stream. Each record lands under its own user's handle
// lock, so the node serves reads while a stream applies.
//
// It verifies that every record's user hashes to the given shard: the
// assignment decides segment ownership, so a misrouted record would
// land a user's state in a shard no lookup ever consults.
func (d *Directory) ReplayShard(shard int, recs []journal.Record) error {
	if shard < 0 || shard >= len(d.shards) {
		return fmt.Errorf("contextpref: replaying shard %d: directory has %d shards", shard, len(d.shards))
	}
	return d.replay(shard, recs)
}

// replay folds recovered (or replicated) records into the directory, in
// order: drops delete the user, creations ensure a parked handle, and
// add/remove records accumulate in the handle — applied directly only
// if the user happens to be resident. With shard >= 0 every record's
// user must hash to that shard.
//
// A run of one user's consecutive creations, adds and removes costs one
// handle lookup and one append. Each distinct add/remove line is parsed
// once per call: ParseLine is a pure function of the text, so a line
// that parsed is valid at every occurrence, and every parked record
// with that text shares one copy of it, owned by the directory rather
// than by the text the records were read from. A line that fails to
// parse fails at every occurrence, and the records before it are
// folded in first, as if each record were replayed alone.
func (d *Directory) replay(shard int, recs []journal.Record) error {
	fail := func(i int, err error) error {
		if shard < 0 {
			return fmt.Errorf("contextpref: replaying record %d (user %q): %w", i, recs[i].User, err)
		}
		return fmt.Errorf("contextpref: replaying shard %d record %d (user %q): %w", shard, i, recs[i].User, err)
	}
	lines := make(map[string]string)
	var run []journal.Record
	var at []int // at[k] is the index in recs of run[k]
	for i := 0; i < len(recs); {
		user := recs[i].User
		own := UserShard(user, len(d.shards))
		if shard >= 0 && own != shard {
			return fmt.Errorf("contextpref: replaying shard %d record %d: user %q belongs to shard %d",
				shard, i, user, own)
		}
		if user == "" {
			return fail(i, fmt.Errorf("contextpref: record without a user in a directory journal"))
		}
		sh := d.shards[own]
		switch op := recs[i].Op; op {
		case journal.OpDrop:
			sh.dropReplayed(user)
			i++
			continue
		case journal.OpUser, journal.OpAdd, journal.OpRemove:
		default:
			return fail(i, fmt.Errorf("contextpref: unknown journal op %q", string(rune(op))))
		}
		run, at = run[:0], at[:0]
		var perr error
		j := i
	runLoop:
		for ; j < len(recs) && recs[j].User == user; j++ {
			r := recs[j]
			switch r.Op {
			case journal.OpUser:
				continue
			case journal.OpAdd, journal.OpRemove:
			default:
				break runLoop // a drop or an unknown op ends the run
			}
			line, ok := lines[r.Line]
			if !ok {
				if _, perr = ParsePreference(r.Line); perr != nil {
					break
				}
				line = strings.Clone(r.Line)
				lines[line] = line
			}
			run = append(run, journal.Record{Op: r.Op, Line: line})
			at = append(at, j)
		}
		// The handle exists once a creation or a valid line was seen.
		if j > i {
			sys, err := sh.parkedEntry(user)
			if err != nil {
				return fail(i, err)
			}
			for k := range run {
				run[k].User = sys.user
			}
			if n, err := sys.appendParked(run); err != nil {
				return fail(at[n], err)
			}
		}
		if perr != nil {
			return fail(j, perr)
		}
		i = j
	}
	return nil
}

// replayOne applies one add/remove record to a bare system. Recovery
// replay runs before a health tracker or persister is attached, so the
// direct application below is exactly what AddPreference/
// RemovePreference would have done.
func replayOne(s *System, r journal.Record) error {
	return applyRecord(s, r)
}

// applyRecord applies one add/remove record directly to the profile
// tree: no health gate, no persister. This is the shared core of
// recovery replay (including the unpark rebuild) and the replication
// follower's live apply path — in all of them, the record is already
// durable in the local journal and was validated when it was first
// committed, so gating it again (a follower's role gate would reject
// its own stream) or re-journaling it would be wrong.
func applyRecord(s *System, r journal.Record) error {
	switch r.Op {
	case journal.OpUser:
		return nil
	case journal.OpAdd, journal.OpRemove:
		p, err := ParsePreference(r.Line)
		if err != nil {
			return err
		}
		if r.Op == journal.OpAdd {
			// InsertAll runs the Def. 6 conflict check itself.
			if err := s.tree.InsertAll(p); err != nil {
				return err
			}
		} else if _, err := s.tree.Delete(p); err != nil {
			return err
		}
		if s.cache != nil {
			s.cache.Invalidate()
		}
		return nil
	case journal.OpDrop:
		return fmt.Errorf("contextpref: drop-user record in single-user journal")
	default:
		return fmt.Errorf("contextpref: unknown journal op %q", string(rune(r.Op)))
	}
}

// ResetShardReplicated replaces one shard's in-memory state with a
// leader snapshot's records for that segment — the segment fell behind
// the leader's compaction horizon and bootstrapped fresh
// (journal.InstallSnapshot already replaced the durable state). Every
// other shard is left untouched: a per-segment bootstrap must stay
// inside its own fault domain.
func (d *Directory) ResetShardReplicated(shard int, recs []journal.Record) error {
	if shard < 0 || shard >= len(d.shards) {
		return fmt.Errorf("contextpref: resetting replicated shard %d: directory has %d shards", shard, len(d.shards))
	}
	sh := d.shards[shard]
	sh.mu.Lock()
	dropped := make([]*SafeSystem, 0, len(sh.systems))
	for _, sys := range sh.systems {
		dropped = append(dropped, sys)
	}
	sh.systems = make(map[string]*SafeSystem)
	sh.residents = make(map[*SafeSystem]struct{})
	sh.mu.Unlock()
	for _, sys := range dropped {
		if sys.detach() {
			sh.noteResident(-1)
		}
	}
	sh.noteUsers()
	return d.ReplayShard(shard, recs)
}

// SnapshotRecords renders the system's current profile as add-records
// suitable for journal.Snapshot: one record per stored (state, clause,
// score) entry. Compaction therefore normalizes the preference count to
// the number of stored entries; the tree, and with it all resolution
// and query semantics, round-trips exactly.
func (s *System) SnapshotRecords(user string) ([]journal.Record, error) {
	text, err := s.ExportProfile()
	if err != nil {
		return nil, err
	}
	return profileRecords(user, text), nil
}

// SnapshotRecords renders the system's current profile under the shared
// lock. A parked system snapshots from its record archive without
// materializing — so compacting a million-user store does not fault a
// million profile trees into memory — at the cost of a possibly
// non-normalized record sequence (replayed add/remove pairs are copied
// as-is until the user is next materialized and parked again).
func (s *SafeSystem) SnapshotRecords(user string) ([]journal.Record, error) {
	s.mu.RLock()
	if s.sys != nil {
		defer s.mu.RUnlock()
		return s.sys.SnapshotRecords(user)
	}
	recs := append([]journal.Record(nil), s.parked...)
	s.mu.RUnlock()
	return recs, nil
}

// SnapshotShardRecords renders one shard's users — and only them — for
// compacting that shard's journal segment.
func (d *Directory) SnapshotShardRecords(shard int) ([]journal.Record, error) {
	if shard < 0 || shard >= len(d.shards) {
		return nil, fmt.Errorf("contextpref: snapshotting shard %d: directory has %d shards", shard, len(d.shards))
	}
	var out []journal.Record
	for _, name := range d.ShardUsers(shard) {
		sys, ok := d.Lookup(name)
		if !ok {
			continue // removed concurrently
		}
		out = append(out, journal.Record{Op: journal.OpUser, User: name})
		recs, err := sys.SnapshotRecords(name)
		if err != nil {
			return nil, fmt.Errorf("contextpref: snapshotting user %q: %w", name, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// profileRecords converts an exported profile to add-records.
func profileRecords(user, text string) []journal.Record {
	var out []journal.Record
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, journal.Record{Op: journal.OpAdd, User: user, Line: line})
	}
	return out
}
