// Package journal implements an append-only, fsync'd write-ahead log
// of preference mutations, giving the in-memory preference database a
// durable, crash-safe persistence layer.
//
// # File format
//
// A store directory holds two line-oriented text files:
//
//	journal.cpj    the write-ahead log, appended (and fsync'd) per batch
//	snapshot.cpj   a compacted rendering of the full state, replaced
//	               atomically (write-temp-then-rename) by Snapshot
//
// Every record is one line of five tab-separated fields:
//
//	<op> TAB <seq> TAB <quoted-user> TAB <crc32-hex> TAB <payload>
//
// where op is one of
//
//	U   user created (payload empty)
//	A   preference added (payload: the preference line encoding)
//	R   preference removed (payload: the preference line encoding)
//	D   user dropped (payload empty)
//	C   batch commit marker (payload: the batch's record count)
//
// seq is a monotonically increasing decimal sequence number, user is a
// Go-quoted user name ("" on commit markers) and crc32-hex is the IEEE
// CRC-32 of the payload bytes in fixed-width hex. Blank lines
// and lines starting with '#' are ignored. The payload reuses the
// preference line encoding of internal/preference, e.g.
//
//	A	7	"alice"	89e2c90c	[accompanying_people = friends] => type = brewery : 0.9
//
// Each Append writes its records followed by one commit marker, all in
// a single write and fsync. Recovery replays only records covered by a
// commit marker, so a batch is atomic on disk exactly as it is in
// memory: a crash mid-batch recovers none of it, never a prefix of it.
//
// # Crash recovery
//
// Open replays the snapshot first and then every committed journal
// record whose sequence number is newer than the snapshot's. A torn
// journal tail — an unterminated line, a corrupt record, or a batch
// missing its commit marker, as left behind by a crash mid-append — is
// tolerated: the journal is truncated back to the end of the last
// committed batch and recovery proceeds with the valid prefix. Journals
// written by the v1 format (no commit markers; every record stood
// alone) are detected by their header and atomically rewritten in the
// current format on open.
//
// Snapshot writes the compacted state to a temporary file, fsyncs it,
// renames it over snapshot.cpj, fsyncs the directory, and only then
// truncates the journal. A crash between the rename and the truncation
// merely leaves already-snapshotted records in the journal; their stale
// sequence numbers make the next Open skip them.
//
// # Self-healing appends
//
// A failed append attempt (short write, failed fsync) rolls the journal
// file back to the last-known-good offset before anything else happens,
// so a half-written batch can never interleave with a retry, and is
// then retried a bounded number of times with exponential backoff
// (configurable via WithRetry) before the error surfaces. If the
// rollback itself fails the journal is wedged — every further write
// returns ErrWedged and the store must be reopened, which re-runs torn
// -tail recovery.
//
// All filesystem access goes through an internal/faultfs.FS, so tests
// can inject disk-full, torn-write, and whole-machine-crash faults at
// any operation; production uses the passthrough OS implementation.
package journal

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"contextpref/internal/faultfs"
	"contextpref/internal/telemetry"
	"contextpref/internal/tracing"
)

// Op identifies a journal record type.
type Op byte

// The journal record types.
const (
	// OpUser records the creation of a user profile.
	OpUser Op = 'U'
	// OpAdd records an added preference (payload: line encoding).
	OpAdd Op = 'A'
	// OpRemove records a removed preference (payload: line encoding).
	OpRemove Op = 'R'
	// OpDrop records the deletion of a user profile.
	OpDrop Op = 'D'
	// opCommit is the internal batch commit marker (payload: record
	// count); it never appears in the records Open returns.
	opCommit Op = 'C'
)

func (op Op) valid() bool {
	switch op {
	case OpUser, OpAdd, OpRemove, OpDrop:
		return true
	}
	return false
}

// Record is one journaled preference mutation.
type Record struct {
	// Op is the mutation type.
	Op Op
	// User is the owning user name, never empty in a record Open
	// returns.
	User string
	// Line is the preference in the line encoding; empty for OpUser
	// and OpDrop.
	Line string
}

const (
	journalFile  = "journal.cpj"
	journalTemp  = "journal.cpj.tmp"
	snapshotFile = "snapshot.cpj"
	snapshotTemp = "snapshot.cpj.tmp"
	fileHeader   = "# cpjournal v2"
	legacyHeader = "# cpjournal v1"
	// metaPrefix introduces the snapshot's last-compacted sequence
	// number ("!lastseq <n>").
	metaPrefix = "!lastseq "
	// probeLine is what Probe durably appends: a comment, invisible to
	// recovery and dropped at the next compaction.
	probeLine = "# probe\n"
)

// Journal is an open write-ahead log. It is safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	fsys    faultfs.FS
	dir     string
	path    string // the journal file path
	f       faultfs.File
	nextSeq uint64
	size    int64 // last-known-good journal length in bytes
	closed  bool
	// wedged is non-nil after a failed append rollback: the on-disk
	// tail may hold a half-written batch at an offset this handle can
	// no longer trust, so every further write is refused until the
	// store is reopened (which truncates the torn tail away).
	wedged error

	// retries is how many times a failed append attempt is retried
	// (after rolling back), with backoff doubling each time.
	retries int
	backoff time.Duration
	// jitter, when non-nil, randomizes each retry sleep to a uniform
	// draw from [backoff/2, backoff*3/2), so a fleet of journals (one
	// per shard, one per follower) hitting the same transient stall
	// does not retry in lockstep. The source is injected, never the
	// global one, so tests and replay stay deterministic.
	jitter *rand.Rand

	// onAppend, when set via OnAppend, observes every durably
	// committed batch for replication shipping; see replicate.go.
	onAppend ShipFunc

	// metrics, when set, observes append/fsync/compaction cost; nil
	// (the default) is a no-op.
	metrics *Metrics
}

// Option configures an opened journal.
type Option func(*Journal)

// WithRetry sets the bounded retry policy for failed append attempts:
// up to retries re-attempts after the first failure, sleeping backoff
// before the first retry and doubling it each time. retries < 0 is
// treated as 0 (fail on the first error).
func WithRetry(retries int, backoff time.Duration) Option {
	return func(j *Journal) {
		if retries < 0 {
			retries = 0
		}
		j.retries = retries
		j.backoff = backoff
	}
}

// WithRetryJitter attaches a seeded randomness source that spreads the
// WithRetry backoff sleeps over [backoff/2, backoff*3/2), de-syncing
// retry storms across shards and followers that share a stalled
// device. The source is injected rather than global so the replay and
// torture paths stay deterministic under a fixed seed; nil disables
// jitter (the default, exact exponential backoff).
func WithRetryJitter(rnd *rand.Rand) Option {
	return func(j *Journal) { j.jitter = rnd }
}

// jitterBackoff returns the sleep for one retry: d exactly when no
// jitter source is attached, otherwise a uniform draw from [d/2, 3d/2)
// so concurrent retriers spread out instead of thundering together.
func jitterBackoff(rnd *rand.Rand, d time.Duration) time.Duration {
	if rnd == nil || d <= 0 {
		return d
	}
	return d/2 + time.Duration(rnd.Int63n(int64(d)))
}

// Metrics are the durability cost instruments a Journal reports. Every
// field is optional; nil fields — and a nil *Metrics — are no-ops, so a
// journal embedded without telemetry pays only a nil check per append.
type Metrics struct {
	// AppendSeconds times whole append batches (marshal + write +
	// fsync).
	AppendSeconds *telemetry.Histogram
	// FsyncSeconds times the fsync alone, isolating stalls caused by
	// the storage device from the cheap in-memory framing.
	FsyncSeconds *telemetry.Histogram
	// AppendBytes counts journal bytes written by appends.
	AppendBytes *telemetry.Counter
	// AppendRecords counts journaled records.
	AppendRecords *telemetry.Counter
	// AppendRetries counts append attempts retried after a transient
	// write or fsync failure.
	AppendRetries *telemetry.Counter
	// AppendRollbacks counts truncate-to-last-good rollbacks performed
	// after a failed append attempt.
	AppendRollbacks *telemetry.Counter
	// SnapshotSeconds times compactions (snapshot write + rename +
	// journal truncation).
	SnapshotSeconds *telemetry.Histogram
	// SnapshotBytes reports the size of the last written snapshot.
	SnapshotBytes *telemetry.Gauge
	// SizeBytes tracks the current journal file size; compaction drops
	// it back to the header.
	SizeBytes *telemetry.Gauge
}

// SetMetrics attaches (or, with nil, detaches) durability cost
// instruments and primes the size gauge with the current journal size.
func (j *Journal) SetMetrics(m *Metrics) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.metrics = m
	if m != nil {
		m.SizeBytes.Set(float64(j.size))
	}
}

// Size returns the current journal file size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrWedged is returned by writes after a failed append rollback left
// the file tail in an untrusted state; reopening the store truncates
// the tail and clears the condition.
var ErrWedged = errors.New("journal: wedged by a failed append rollback; reopen required")

// ShardDir returns the conventional sub-directory name for one shard's
// journal segment inside a sharded store: "shard-NNN". The zero-padded
// fixed width keeps directory listings sorted by shard index.
func ShardDir(shard int) string {
	return fmt.Sprintf("shard-%03d", shard)
}

// Open opens (creating it if needed) the store directory on the real
// filesystem, recovers the persisted records — snapshot first, then the
// journal tail — and returns the journal ready for appending. A torn
// journal tail is truncated away; see the package comment.
//
// Recovery copies no record: each recovered record's user and payload
// are substrings of the text of the file it was read from, so one
// record kept keeps that whole file's text alive. A holder that keeps
// a record past recovery must copy its strings.
func Open(dir string, opts ...Option) (*Journal, []Record, error) {
	return OpenFS(faultfs.OS{}, dir, opts...)
}

// OpenFS is Open over an explicit filesystem implementation — the
// fault-injection seam. Production callers use Open.
func OpenFS(fsys faultfs.FS, dir string, opts ...Option) (*Journal, []Record, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// Stale temp files are debris from a crashed snapshot or format
	// migration; the rename never happened, so they are dead weight.
	_ = fsys.Remove(filepath.Join(dir, snapshotTemp))
	_ = fsys.Remove(filepath.Join(dir, journalTemp))

	recs, lastSeq, err := readSnapshot(fsys, filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, nil, err
	}
	jpath := filepath.Join(dir, journalFile)
	scan, err := readJournal(fsys, jpath)
	if err != nil {
		return nil, nil, err
	}
	if scan.legacy {
		// Rewrite the v1 journal in the commit-framed format so every
		// later open parses one format only.
		if err := migrate(fsys, dir, &scan); err != nil {
			return nil, nil, err
		}
	} else if sz, err := fsys.Size(jpath); err == nil && sz > scan.validLen {
		// Torn or corrupt tail: truncate back to the last committed
		// batch.
		if err := fsys.Truncate(jpath, scan.validLen); err != nil {
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	nextSeq := lastSeq + 1
	// The journal's records follow the snapshot's, less those the
	// snapshot already folded in; without snapshot records, the scan's
	// slice is filtered in place and returned as it is.
	tail := scan.recs[:0]
	for i, r := range scan.recs {
		if scan.seqs[i] > lastSeq {
			tail = append(tail, r)
		}
	}
	if len(recs) == 0 {
		recs = tail
	} else {
		recs = append(recs, tail...)
	}
	if scan.maxSeq >= nextSeq {
		nextSeq = scan.maxSeq + 1
	}
	f, err := fsys.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	size, _ := fsys.Size(jpath)
	if size == 0 {
		if _, err := f.Write([]byte(fileHeader + "\n")); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		size = int64(len(fileHeader) + 1)
	}
	j := &Journal{
		fsys: fsys, dir: dir, path: jpath, f: f,
		nextSeq: nextSeq, size: size,
		retries: 2, backoff: 2 * time.Millisecond,
	}
	for _, o := range opts {
		o(j)
	}
	return j, recs, nil
}

// Dir returns the store directory.
func (j *Journal) Dir() string { return j.dir }

// Append durably writes the records as one batch: all lines are written
// with consecutive sequence numbers, framed by a commit marker, and
// fsync'd once. On error none of the batch is durable — recovery drops
// an uncommitted batch entirely — and the in-file state has been rolled
// back so a retry cannot interleave with the torn bytes.
func (j *Journal) Append(recs ...Record) error {
	return j.AppendCtx(context.Background(), recs...)
}

// AppendCtx is Append carrying the caller's request context for span
// provenance: the batch is recorded as a journal.append span (records,
// bytes) with the fsyncs as child spans, so a retained trace attributes
// a slow mutation to the device, not the framing. Durability semantics
// are identical to Append — the context does not cancel the write; a
// batch either commits whole or rolls back.
//
//cpvet:lockheld j.mu is the durability serialization point: batches must reach the disk in sequence order, so the fsync happens under the lock by design
func (j *Journal) AppendCtx(ctx context.Context, recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.wedged != nil {
		return j.wedged
	}
	ctx, sp := tracing.Start(ctx, "journal.append")
	defer sp.End()
	sp.SetInt("records", int64(len(recs)))
	var start time.Time
	if j.metrics != nil {
		start = time.Now()
	}
	seq := j.nextSeq
	var b strings.Builder
	for _, r := range recs {
		if !r.Op.valid() {
			err := fmt.Errorf("journal: invalid op %q", string(rune(r.Op)))
			sp.Fail(err)
			return err
		}
		line, err := marshal(r, seq)
		if err != nil {
			sp.Fail(err)
			return err
		}
		b.WriteString(line)
		seq++
	}
	commit, err := marshal(Record{Op: opCommit, Line: strconv.Itoa(len(recs))}, seq)
	if err != nil {
		sp.Fail(err)
		return err
	}
	b.WriteString(commit)
	commitSeq := seq
	seq++
	batch := b.String()
	sp.SetInt("bytes", int64(len(batch)))
	if err := j.writeDurable(ctx, batch, start); err != nil {
		sp.Fail(err)
		return err
	}
	firstSeq := j.nextSeq
	j.nextSeq = seq
	j.size += int64(b.Len())
	if m := j.metrics; m != nil {
		m.AppendSeconds.ObserveSince(start)
		m.AppendBytes.Add(b.Len())
		m.AppendRecords.Add(len(recs))
		m.SizeBytes.Set(float64(j.size))
	}
	if j.onAppend != nil {
		// []byte(batch) is a fresh copy, so the observer may retain it.
		j.onAppend(firstSeq, commitSeq, []byte(batch))
	}
	return nil
}

// Probe verifies the append path end to end by durably writing a
// comment line, which recovery ignores and the next compaction drops.
// It is what a degraded-mode health probe calls to test whether the
// store has recovered. The caller must hold no expectations about
// sequence numbers: a probe consumes none.
//
//cpvet:lockheld the probe is a durable no-op append and shares the append path's lock-across-fsync design
func (j *Journal) Probe() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.wedged != nil {
		return j.wedged
	}
	if err := j.writeDurable(context.Background(), probeLine, time.Time{}); err != nil {
		return err
	}
	j.size += int64(len(probeLine))
	if m := j.metrics; m != nil {
		m.SizeBytes.Set(float64(j.size))
	}
	return nil
}

// writeDurable writes s at the journal tail and fsyncs, retrying
// transient failures up to j.retries times. Every failed attempt first
// rolls the file back to the last-known-good offset (j.size); if that
// rollback fails the journal wedges. Callers hold j.mu. ctx carries
// span provenance only (each fsync attempt becomes a journal.fsync
// span); it does not cancel the write.
func (j *Journal) writeDurable(ctx context.Context, s string, metricStart time.Time) error {
	backoff := j.backoff
	for attempt := 0; ; attempt++ {
		err := func() error {
			if _, err := j.f.Write([]byte(s)); err != nil {
				return fmt.Errorf("journal: append: %w", err)
			}
			var syncStart time.Time
			if j.metrics != nil && !metricStart.IsZero() {
				syncStart = time.Now()
			}
			_, fsp := tracing.Start(ctx, "journal.fsync")
			err := j.f.Sync()
			fsp.Fail(err)
			fsp.End()
			if err != nil {
				return fmt.Errorf("journal: fsync: %w", err)
			}
			if m := j.metrics; m != nil && !syncStart.IsZero() {
				m.FsyncSeconds.ObserveSince(syncStart)
			}
			return nil
		}()
		if err == nil {
			return nil
		}
		// Roll back to the last-known-good offset so the torn bytes of
		// this attempt cannot interleave with a later one.
		if terr := j.f.Truncate(j.size); terr != nil {
			j.wedged = fmt.Errorf("%w (rollback: %w; append: %w)", ErrWedged, terr, err)
			return j.wedged
		}
		if m := j.metrics; m != nil {
			m.AppendRollbacks.Inc()
		}
		if attempt >= j.retries {
			return err
		}
		if m := j.metrics; m != nil {
			m.AppendRetries.Inc()
		}
		time.Sleep(jitterBackoff(j.jitter, backoff))
		backoff *= 2
	}
}

// Snapshot atomically replaces the snapshot with the given compacted
// state and truncates the journal. state should reconstruct the full
// current database when replayed (typically OpUser + OpAdd records).
func (j *Journal) Snapshot(state []Record) error {
	return j.SnapshotCtx(context.Background(), state)
}

// SnapshotCtx is Snapshot carrying the caller's context for span
// provenance: the compaction is recorded as a journal.compact span
// (records, snapshot bytes), so a trace of a request stalled behind
// compaction names the stall. The context does not cancel the
// compaction.
//
//cpvet:lockheld compaction swaps the snapshot and truncates the journal; appends must not interleave, so the lock covers the fsyncs
func (j *Journal) SnapshotCtx(ctx context.Context, state []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.wedged != nil {
		return j.wedged
	}
	_, sp := tracing.Start(ctx, "journal.compact")
	defer sp.End()
	sp.SetInt("records", int64(len(state)))
	err := j.snapshotLocked(state)
	sp.Fail(err)
	return err
}

// snapshotLocked is the compaction body; callers hold j.mu.
func (j *Journal) snapshotLocked(state []Record) error {
	var start time.Time
	if j.metrics != nil {
		start = time.Now()
	}
	lastSeq := j.nextSeq - 1
	var b strings.Builder
	b.WriteString(fileHeader + " snapshot\n")
	fmt.Fprintf(&b, "%s%d\n", metaPrefix, lastSeq)
	for _, r := range state {
		line, err := marshal(r, lastSeq)
		if err != nil {
			return err
		}
		b.WriteString(line)
	}
	tmp := filepath.Join(j.dir, snapshotTemp)
	if err := writeFileSync(j.fsys, tmp, b.String()); err != nil {
		return err
	}
	final := filepath.Join(j.dir, snapshotFile)
	if err := j.fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	if err := syncDir(j.fsys, j.dir); err != nil {
		return err
	}
	// Compaction: the snapshot now owns everything up to lastSeq, so
	// the journal restarts empty.
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	j.size = 0
	if _, err := j.f.Write([]byte(fileHeader + "\n")); err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.size = int64(len(fileHeader) + 1)
	if m := j.metrics; m != nil {
		m.SnapshotSeconds.ObserveSince(start)
		m.SnapshotBytes.Set(float64(b.Len()))
		m.SizeBytes.Set(float64(j.size))
	}
	return nil
}

// Close flushes and closes the journal. Further operations return
// ErrClosed.
//
//cpvet:lockheld the final flush must exclude concurrent appends; cold path, runs once at shutdown
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return j.f.Close()
}

// marshal renders one record line.
func marshal(r Record, seq uint64) (string, error) {
	if !r.Op.valid() && r.Op != opCommit {
		return "", fmt.Errorf("journal: invalid op %q", string(rune(r.Op)))
	}
	if strings.ContainsAny(r.Line, "\n\r") {
		return "", fmt.Errorf("journal: payload contains a line break: %q", r.Line)
	}
	return fmt.Sprintf("%c\t%d\t%s\t%08x\t%s\n",
		byte(r.Op), seq, strconv.Quote(r.User), crc32.ChecksumIEEE([]byte(r.Line)), r.Line), nil
}

// parseRecord reads one record line (without its line ending). raw
// holds the same bytes as line, and the checksum is computed over them,
// so a caller holding the file's bytes checks it without a copy. The
// record's user and payload are substrings of line.
func parseRecord(line string, raw []byte) (Record, uint64, error) {
	var f [5]string
	n, rest := 0, line
	for ; n < len(f)-1; n++ {
		tab := strings.IndexByte(rest, '\t')
		if tab < 0 {
			break
		}
		f[n], rest = rest[:tab], rest[tab+1:]
	}
	f[n] = rest
	if n++; n != len(f) {
		return Record{}, 0, fmt.Errorf("journal: %d fields, want 5", n)
	}
	if len(f[0]) != 1 || !(Op(f[0][0]).valid() || Op(f[0][0]) == opCommit) {
		return Record{}, 0, fmt.Errorf("journal: invalid op %q", f[0])
	}
	seq, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return Record{}, 0, fmt.Errorf("journal: bad sequence number %q", f[1])
	}
	user, err := strconv.Unquote(f[2])
	if err != nil {
		return Record{}, 0, fmt.Errorf("journal: bad user field %q", f[2])
	}
	sum, err := strconv.ParseUint(f[3], 16, 32)
	if err != nil {
		return Record{}, 0, fmt.Errorf("journal: bad checksum field %q", f[3])
	}
	if got := crc32.ChecksumIEEE(raw[len(raw)-len(f[4]):]); got != uint32(sum) {
		return Record{}, 0, fmt.Errorf("journal: checksum mismatch (%08x != %08x)", got, sum)
	}
	return Record{Op: Op(f[0][0]), User: user, Line: f[4]}, seq, nil
}

// readSnapshot strictly parses the snapshot file (it is written
// atomically, so any damage is real corruption, not a torn write).
// Missing file means empty state.
//
//cpvet:deterministic
func readSnapshot(fsys faultfs.FS, path string) ([]Record, uint64, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: reading snapshot: %w", err)
	}
	recs, lastSeq, _, err := parseSnapshot(data)
	return recs, lastSeq, err
}

// parseSnapshot strictly parses a snapshot rendering. hasMeta reports
// whether a "!lastseq" line was present — a snapshot shipped over the
// replication wire must carry one, while a locally written snapshot
// always does.
//
//cpvet:deterministic
func parseSnapshot(data []byte) (recs []Record, lastSeq uint64, hasMeta bool, err error) {
	text := string(data)
	recs = make([]Record, 0, strings.Count(text, "\n")+1)
	for ln, off := 1, 0; off <= len(text); ln++ {
		end := strings.IndexByte(text[off:], '\n')
		if end < 0 {
			end = len(text) - off
		}
		// Only trim the line ending: a record with an empty payload
		// legitimately ends in a tab.
		line := strings.TrimRight(text[off:off+end], "\r")
		raw := data[off : off+len(line)]
		off += end + 1
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, metaPrefix); ok {
			lastSeq, err = strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return nil, 0, false, fmt.Errorf("journal: snapshot line %d: bad lastseq: %w", ln, err)
			}
			hasMeta = true
			continue
		}
		r, _, err := parseRecord(line, raw)
		if err != nil {
			return nil, 0, false, fmt.Errorf("journal: snapshot line %d: %w", ln, err)
		}
		if r.Op == opCommit {
			return nil, 0, false, fmt.Errorf("journal: snapshot line %d: commit marker in snapshot", ln)
		}
		recs = append(recs, r)
	}
	return recs, lastSeq, hasMeta, nil
}

// journalScan is the result of tolerantly parsing the journal.
type journalScan struct {
	// recs/seqs hold the committed records in order. Their strings are
	// substrings of the journal file's text.
	recs []Record
	seqs []uint64
	// maxSeq is the highest committed sequence number, including the
	// commit markers' own numbers.
	maxSeq uint64
	// validLen is the byte length of the committed prefix; everything
	// past it is a torn or corrupt tail to truncate away.
	validLen int64
	// legacy reports the v1 header: per-record durability, no commit
	// markers.
	legacy bool
}

// readJournal tolerantly parses the journal: it stops at the first
// invalid, unterminated, or mis-framed line and reports the byte length
// of the committed prefix so the caller can truncate the tail away. In
// the commit-framed format, a batch's records count only once its
// commit marker is seen — an uncommitted batch is dropped entirely.
//
// The file is converted to a string once and every record's fields are
// substrings of it; each checksum runs over the file's bytes. Records
// are appended straight into slices sized by the line count, and an
// unfinished batch is cut off their end.
//
//cpvet:deterministic
func readJournal(fsys faultfs.FS, path string) (journalScan, error) {
	var scan journalScan
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return scan, nil
	}
	if err != nil {
		return scan, fmt.Errorf("journal: reading journal: %w", err)
	}
	text := string(data)
	scan.legacy = strings.HasPrefix(text, legacyHeader+"\n") ||
		text == legacyHeader // torn header newline: still v1
	lines := strings.Count(text, "\n")
	scan.recs = make([]Record, 0, lines)
	scan.seqs = make([]uint64, 0, lines)
	// committed is how many of scan.recs the last commit covered; the
	// records past it are the pending batch.
	committed := 0
	off := 0
scanLoop:
	for off < len(text) {
		nl := strings.IndexByte(text[off:], '\n')
		if nl < 0 {
			break // unterminated final line: torn write
		}
		end := off + nl + 1
		line := strings.TrimRight(text[off:off+nl], "\r")
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			// Comments between batches (the header, probe lines) are
			// committed ground; mid-batch they cannot occur, and
			// advancing there would resurrect a torn batch.
			if len(scan.recs) == committed {
				scan.validLen = int64(end)
			}
			off = end
			continue
		}
		r, seq, perr := parseRecord(line, data[off:off+len(line)])
		if perr != nil {
			break // corrupt record: keep only the prefix before it
		}
		switch {
		case scan.legacy:
			if r.Op == opCommit {
				// v1 journals have no commit markers; one is corruption.
				break scanLoop
			}
			scan.recs = append(scan.recs, r)
			scan.seqs = append(scan.seqs, seq)
			committed = len(scan.recs)
			if seq > scan.maxSeq {
				scan.maxSeq = seq
			}
			scan.validLen = int64(end)
		case r.Op == opCommit:
			count, cerr := strconv.Atoi(r.Line)
			if cerr != nil || count != len(scan.recs)-committed || count == 0 {
				break scanLoop // mis-framed commit: corruption
			}
			committed = len(scan.recs)
			if seq > scan.maxSeq {
				scan.maxSeq = seq
			}
			scan.validLen = int64(end)
		default:
			scan.recs = append(scan.recs, r)
			scan.seqs = append(scan.seqs, seq)
		}
		off = end
	}
	scan.recs, scan.seqs = scan.recs[:committed], scan.seqs[:committed]
	return scan, nil
}

// migrate atomically rewrites a v1 journal in the commit-framed format,
// wrapping its surviving records in a single batch. scan.maxSeq is
// advanced past the new commit marker.
//
//cpvet:deterministic
func migrate(fsys faultfs.FS, dir string, scan *journalScan) error {
	var b strings.Builder
	b.WriteString(fileHeader + "\n")
	if len(scan.recs) > 0 {
		for i, r := range scan.recs {
			line, err := marshal(r, scan.seqs[i])
			if err != nil {
				return fmt.Errorf("journal: migrating v1 journal: %w", err)
			}
			b.WriteString(line)
		}
		commitSeq := scan.maxSeq + 1
		commit, err := marshal(Record{Op: opCommit, Line: strconv.Itoa(len(scan.recs))}, commitSeq)
		if err != nil {
			return fmt.Errorf("journal: migrating v1 journal: %w", err)
		}
		b.WriteString(commit)
		scan.maxSeq = commitSeq
	}
	tmp := filepath.Join(dir, journalTemp)
	if err := writeFileSync(fsys, tmp, b.String()); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, journalFile)); err != nil {
		return fmt.Errorf("journal: migrating v1 journal: %w", err)
	}
	return syncDir(fsys, dir)
}

// writeFileSync writes content to path and fsyncs it.
func writeFileSync(fsys faultfs.FS, path, content string) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(fsys faultfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	return nil
}
