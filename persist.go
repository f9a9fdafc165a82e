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
// Directory replay is lazy: records are parsed and checked against the
// environment (so a corrupt or foreign journal still fails loudly at
// startup) but parked in per-user handles in binary form instead of
// being applied to materialized profile trees — a directory with a
// million journaled users starts with zero resident trees, and each
// profile is built on first access.

import (
	"context"
	"fmt"
	"strings"

	"contextpref/internal/journal"
	"contextpref/internal/preference"
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
// indicates a corrupt or foreign journal. Recovery replay runs before a
// health tracker or persister is attached, so applying each record
// directly is exactly what AddPreference/RemovePreference would have
// done.
func (s *System) Replay(recs []journal.Record) error {
	for i, r := range recs {
		if err := applyRecord(s, r); err != nil {
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
// Replay is lazy: each record is parsed, validated against the
// environment and parked in its user's handle in binary form; no
// profile tree is materialized until the user is first accessed. It is
// a Replayer fed one slice.
func (d *Directory) Replay(recs []journal.Record) error {
	return d.newReplayer(-1).Apply(recs)
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
// land a user's state in a shard no lookup ever consults. It is a
// ShardReplayer fed one slice, so two calls share nothing.
func (d *Directory) ReplayShard(shard int, recs []journal.Record) error {
	r, err := d.ShardReplayer(shard)
	if err != nil {
		return err
	}
	return r.Apply(recs)
}

// ShardReplayer returns the replay state of one recovery of a shard's
// segment: a segment read batch by batch (journal.OpenStream) is fed
// to Apply one batch at a time, in order, and replays exactly as
// ReplayShard of the whole segment would. The state lives as long as
// the recovery.
func (d *Directory) ShardReplayer(shard int) (*Replayer, error) {
	if shard < 0 || shard >= len(d.shards) {
		return nil, fmt.Errorf("contextpref: replaying shard %d: directory has %d shards", shard, len(d.shards))
	}
	return d.newReplayer(shard), nil
}

func (d *Directory) newReplayer(shard int) *Replayer {
	return &Replayer{d: d, shard: shard, lines: make(map[string]string)}
}

// Replayer folds the records of one journal segment into a directory,
// a batch at a time: drops delete the user, creations ensure a parked
// handle, and add/remove records are parked in the handle — applied
// directly only if the user happens to be resident. With a shard, every
// record's user must hash to it. A Replayer is not safe for concurrent
// use.
//
// A run of one user's consecutive creations, adds and removes costs one
// handle lookup and one append. Each distinct add/remove line is parsed
// and encoded once per Replayer: ParseLine is a pure function of the
// text, so a line that parsed and encoded is valid at every occurrence,
// and the table keeps the line and its encoding in one string of its
// own, never the batch text it was read from. A line that fails to
// parse, or names a parameter or value outside the environment, fails
// at every occurrence, and the records before it are folded in first,
// as if each record were replayed alone.
type Replayer struct {
	d     *Directory
	shard int // -1: records of any shard
	// n is how many records Apply was fed: the segment index of the
	// next record.
	n      int
	parser preference.LineParser
	// lines maps each distinct line seen to its binary encoding.
	lines map[string]string
	enc   []byte // scratch for a new line's table entry
	run   []byte // the current run's records in parked form
	at    []int  // at[k] is the index in the batch of run record k
}

// Records returns how many records the replayer was fed.
func (r *Replayer) Records() int { return r.n }

// Apply folds the next batch of the segment's records into the
// directory. An error names the failing record by its index in the
// segment and its user.
func (r *Replayer) Apply(recs []journal.Record) error {
	d, base := r.d, r.n
	r.n += len(recs)
	fail := func(i int, err error) error {
		if r.shard < 0 {
			return fmt.Errorf("contextpref: replaying record %d (user %q): %w", base+i, recs[i].User, err)
		}
		return fmt.Errorf("contextpref: replaying shard %d record %d (user %q): %w", r.shard, base+i, recs[i].User, err)
	}
	for i := 0; i < len(recs); {
		user := recs[i].User
		own := UserShard(user, len(d.shards))
		if r.shard >= 0 && own != r.shard {
			return fmt.Errorf("contextpref: replaying shard %d record %d: user %q belongs to shard %d",
				r.shard, base+i, user, own)
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
		r.run, r.at = r.run[:0], r.at[:0]
		var perr error
		j := i
	runLoop:
		for ; j < len(recs) && recs[j].User == user; j++ {
			rec := recs[j]
			switch rec.Op {
			case journal.OpUser:
				continue
			case journal.OpAdd, journal.OpRemove:
			default:
				break runLoop // a drop or an unknown op ends the run
			}
			enc, ok := r.lines[rec.Line]
			if !ok {
				if enc, perr = r.encode(rec.Line); perr != nil {
					break
				}
			}
			r.run = append(append(r.run, byte(rec.Op)), enc...)
			r.at = append(r.at, j)
		}
		// The handle exists once a creation or a valid line was seen.
		if j > i {
			sys, err := sh.parkedEntry(user)
			if err != nil {
				return fail(i, err)
			}
			if n, err := sys.appendParked(r.run); err != nil {
				return fail(r.at[n], err)
			}
		}
		if perr != nil {
			return fail(j, perr)
		}
		i = j
	}
	return nil
}

// encode parses a line the table has not seen, encodes it against the
// environment and enters it: one allocation holds the table's key and
// the encoding.
func (r *Replayer) encode(line string) (string, error) {
	p, err := r.parser.Parse(line)
	if err != nil {
		return "", err
	}
	if r.enc, err = preference.AppendBinary(append(r.enc[:0], line...), r.d.env, p); err != nil {
		return "", err
	}
	entry := string(r.enc)
	key, enc := entry[:len(line)], entry[len(line):]
	r.lines[key] = enc
	return enc, nil
}

// applyRecord applies one add/remove record directly to the profile
// tree: no health gate, no persister. This is the shared core of
// single-system recovery replay and the replication tests' apply path
// — in all of them, the record is already durable in the local journal
// and was validated when it was first committed, so gating it again (a
// follower's role gate would reject its own stream) or re-journaling it
// would be wrong.
func applyRecord(s *System, r journal.Record) error {
	switch r.Op {
	case journal.OpUser:
		return nil
	case journal.OpAdd, journal.OpRemove:
		p, err := ParsePreference(r.Line)
		if err != nil {
			return err
		}
		return applyPref(s, r.Op, p)
	case journal.OpDrop:
		return fmt.Errorf("contextpref: drop-user record in single-user journal")
	default:
		return fmt.Errorf("contextpref: unknown journal op %q", string(rune(r.Op)))
	}
}

// applyPref applies one added or removed preference directly to the
// profile tree, as applyRecord does; the unpark rebuild applies its
// decoded records through it.
func applyPref(s *System, op journal.Op, p Preference) error {
	switch op {
	case journal.OpAdd:
		// InsertAll runs the Def. 6 conflict check itself.
		if err := s.tree.InsertAll(p); err != nil {
			return err
		}
	case journal.OpRemove:
		if _, err := s.tree.Delete(p); err != nil {
			return err
		}
	default:
		return fmt.Errorf("contextpref: unknown journal op %q", string(rune(op)))
	}
	if s.cache != nil {
		s.cache.Invalidate()
	}
	return nil
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
// lock. A parked system snapshots from its parked form without
// materializing — so compacting a million-user store does not fault a
// million profile trees into memory — at the cost of a possibly
// non-normalized record sequence (replayed add/remove pairs are kept
// as-is until the user is next materialized and parked again). Each
// parked record is decoded and rendered with FormatPreference, so a
// line this package journaled comes back byte-identical and a
// hand-written one in its canonical form. Decoding needs the
// directory's environment, so a parked user removed from its directory
// fails.
func (s *SafeSystem) SnapshotRecords(user string) ([]journal.Record, error) {
	var env *Environment
	if sh := s.shard.Load(); sh != nil {
		env = sh.d.env
	}
	return s.snapshotRecords(env, user)
}

// snapshotRecords is SnapshotRecords decoding a parked form against
// env. Compaction passes its directory's, so a compaction that races a
// removal still renders the user.
func (s *SafeSystem) snapshotRecords(env *Environment, user string) ([]journal.Record, error) {
	s.mu.RLock()
	if s.sys != nil {
		defer s.mu.RUnlock()
		return s.sys.SnapshotRecords(user)
	}
	parked := s.parked // appends never write the bytes it spans
	s.mu.RUnlock()
	if env == nil {
		return nil, fmt.Errorf("contextpref: user %q was removed", s.user)
	}
	return parkedRecords(env, user, parked)
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
		recs, err := sys.snapshotRecords(d.env, name)
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
