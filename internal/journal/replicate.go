package journal

// This file is the journal's replication surface: the leader-side tap
// that observes every durably committed batch (OnAppend, TailSince)
// and the follower-side entry points that graft leader batches onto a
// local journal while preserving the leader's sequence numbers
// (AppendReplicated, InstallSnapshot). The record encoding on the wire
// is byte-for-byte the on-disk encoding — CRC-framed lines plus the
// batch commit marker — so the transport inherits the same torn-tail
// and corruption detection the disk format already has, and a
// follower's journal file is directly comparable to its leader's.
//
// Sequencing contract. The leader's sequence numbers are the
// replication stream's identity: a follower only ever appends a batch
// whose first sequence number is exactly its own next one, skips
// batches it already holds (reconnect replay is idempotent), and
// refuses gaps and straddles with ErrOutOfSync so the caller can fall
// back to a snapshot bootstrap. Because batches are written atomically
// under the same commit framing as local appends, a follower's
// recovered state is always a prefix of the leader's acked batches —
// the promotion safety argument rests on exactly this.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"
)

// ShipFunc observes one durably committed batch: the records' sequence
// numbers span [firstSeq, commitSeq) with the commit marker at
// commitSeq, and batch holds the exact bytes appended to the journal
// (record lines plus the commit line, newline-terminated). The slice
// is the observer's to keep. Called synchronously under the journal
// lock — implementations must not call back into the journal and
// should only hand the batch off (e.g. to per-follower send buffers).
type ShipFunc func(firstSeq, commitSeq uint64, batch []byte)

// OnAppend registers the batch observer (nil detaches). One observer
// is kept; the replication leader fans batches out from it.
func (j *Journal) OnAppend(fn ShipFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onAppend = fn
}

// LastSeq returns the newest committed sequence number (0 on a fresh
// store). It counts commit markers too, so it is exactly the value a
// follower acknowledges after applying the newest batch.
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// Batch is one committed batch of the replication stream.
type Batch struct {
	// FirstSeq is the first record's sequence number.
	FirstSeq uint64
	// CommitSeq is the commit marker's sequence number; the batch
	// holds CommitSeq-FirstSeq records.
	CommitSeq uint64
	// Data is the batch's exact journal encoding (record lines plus
	// the commit line, newline-terminated).
	Data []byte
}

// ErrOutOfSync reports a replicated batch that does not graft onto the
// local journal tail — a sequence gap or a batch straddling the local
// horizon. The follower must resynchronize (reconnect and accept a
// snapshot bootstrap); appending anything would corrupt the prefix
// property.
var ErrOutOfSync = errors.New("journal: replicated batch out of sync with local tail")

// TailSince reads the committed stream after afterSeq from the store,
// consistently under the append lock. When the journal alone still
// holds everything needed (afterSeq at or past the snapshot horizon),
// snapshot is nil and batches holds the batches with sequence numbers
// after afterSeq. When afterSeq predates the snapshot horizon — a cold
// follower, or one that fell behind a compaction — snapshot holds the
// snapshot file's rendering (install it first, see InstallSnapshot)
// and batches holds the full journal tail on top of it. lastSeq is the
// newest committed sequence number.
func (j *Journal) TailSince(afterSeq uint64) (snapshot []byte, batches []Batch, lastSeq uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, nil, 0, ErrClosed
	}
	snapData, err := j.fsys.ReadFile(filepath.Join(j.dir, snapshotFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("journal: reading snapshot for shipping: %w", err)
	}
	var snapSeq uint64
	if snapData != nil {
		// Only the horizon is needed: the records are not collected.
		if snapSeq, _, err = scanSnapshot(bytes.NewReader(snapData), readBufSize, nil); err != nil {
			return nil, nil, 0, err
		}
	}
	jData, err := j.fsys.ReadFile(j.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("journal: reading journal for shipping: %w", err)
	}
	all := scanBatches(jData)
	lastSeq = j.nextSeq - 1
	if afterSeq >= snapSeq {
		var out []Batch
		aligned := true
		for _, b := range all {
			if b.CommitSeq <= afterSeq {
				continue
			}
			if b.FirstSeq <= afterSeq {
				aligned = false // afterSeq splits a batch: foreign follower
				break
			}
			out = append(out, b)
		}
		if aligned {
			return nil, out, lastSeq, nil
		}
	}
	// The follower is behind the snapshot horizon (or mis-aligned):
	// full bootstrap — snapshot plus the whole journal tail.
	return snapData, all, lastSeq, nil
}

// scanBatches tolerantly splits a journal file into its committed
// batches: comments and blank lines between batches are skipped, and
// scanning stops at the first torn or corrupt line, mirroring the
// recovery scan's discipline. Each record line is parsed from the
// file's bytes, and each batch's Data is a slice of data, not a copy.
//
//cpvet:deterministic
func scanBatches(data []byte) []Batch {
	var out []Batch
	var pendingFirst uint64
	var pendingCount int
	start := -1 // byte offset where the pending batch began
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated final line: torn write
		}
		end := off + nl + 1
		line := bytes.TrimRight(data[off:off+nl], "\r")
		if isBlank(line) {
			if pendingCount > 0 {
				break // comment mid-batch cannot occur; treat as torn
			}
			off = end
			continue
		}
		r, perr := parseRecord(line)
		if perr != nil {
			break
		}
		switch {
		case r.op == opCommit:
			count, ok := commitCount(r.payload)
			if !ok || count != pendingCount || count == 0 {
				return out // mis-framed commit: keep the committed prefix
			}
			out = append(out, Batch{FirstSeq: pendingFirst, CommitSeq: r.seq, Data: data[start:end:end]})
			pendingCount, start = 0, -1
		default:
			if pendingCount == 0 {
				pendingFirst, start = r.seq, off
			}
			pendingCount++
		}
		off = end
	}
	return out
}

// parseBatch strictly validates one wire batch: at least one record
// line, consecutive sequence numbers, a final commit marker whose
// count matches, CRC-checked payloads, and nothing else — no comments,
// no blank lines, newline-terminated. Returns the records (without the
// commit marker), whose strings are substrings of one string for the
// batch, and the batch's sequence span.
//
//cpvet:deterministic
func parseBatch(data []byte) (recs []Record, firstSeq, commitSeq uint64, err error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, 0, 0, fmt.Errorf("journal: replicated batch not newline-terminated")
	}
	b := batchBuf{text: make([]byte, 0, len(data))}
	rest := bytes.TrimRight(data, "\n")
	for i, more := 0, true; more; i++ {
		var line []byte
		line, rest, more = bytes.Cut(rest, []byte{'\n'})
		r, perr := parseRecord(line)
		if perr != nil {
			return nil, 0, 0, fmt.Errorf("journal: replicated batch line %d: %w", i+1, perr)
		}
		if i == 0 {
			firstSeq = r.seq
		} else if r.seq != firstSeq+uint64(i) {
			return nil, 0, 0, fmt.Errorf("journal: replicated batch line %d: sequence %d, want %d",
				i+1, r.seq, firstSeq+uint64(i))
		}
		if !more {
			if r.op != opCommit {
				return nil, 0, 0, fmt.Errorf("journal: replicated batch missing commit marker")
			}
			count, ok := commitCount(r.payload)
			if !ok || count != b.len() || count == 0 {
				return nil, 0, 0, fmt.Errorf("journal: replicated batch mis-framed commit %q over %d records",
					r.payload, b.len())
			}
			recs, _ = b.flush()
			return recs, firstSeq, r.seq, nil
		}
		if r.op == opCommit {
			return nil, 0, 0, fmt.Errorf("journal: replicated batch line %d: interior commit marker", i+1)
		}
		b.add(r)
	}
	return nil, 0, 0, fmt.Errorf("journal: empty replicated batch")
}

// AppendReplicated validates and durably appends one leader-shipped
// batch, preserving the leader's sequence numbers. A batch the journal
// already holds (its commit marker at or below the local tail) is
// skipped without touching the disk — reconnect replay is idempotent
// by sequence number. A batch that neither duplicates nor extends the
// tail fails with an error wrapping ErrOutOfSync and writes nothing.
// It returns the batch's records (nil for a skipped duplicate) for the
// caller to apply to its in-memory state, and the journal's new last
// sequence number.
func (j *Journal) AppendReplicated(batch []byte) ([]Record, uint64, error) {
	return j.AppendReplicatedCtx(context.Background(), batch)
}

// AppendReplicatedCtx is AppendReplicated carrying the follower's
// session context for span provenance (the durable write's fsyncs
// become journal.fsync child spans). The context does not cancel the
// write.
//
//cpvet:lockheld grafted batches share the append path's invariant: sequence-ordered durable writes require the fsync under j.mu
func (j *Journal) AppendReplicatedCtx(ctx context.Context, batch []byte) ([]Record, uint64, error) {
	recs, firstSeq, commitSeq, err := parseBatch(batch)
	if err != nil {
		return nil, 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, 0, ErrClosed
	}
	if j.wedged != nil {
		return nil, 0, j.wedged
	}
	if commitSeq < j.nextSeq {
		return nil, j.nextSeq - 1, nil // full duplicate: already durable here
	}
	if firstSeq != j.nextSeq {
		return nil, 0, fmt.Errorf("%w: batch [%d,%d] against local tail %d",
			ErrOutOfSync, firstSeq, commitSeq, j.nextSeq-1)
	}
	var start time.Time
	if j.metrics != nil {
		start = time.Now()
	}
	if err := j.writeDurable(ctx, batch, start); err != nil {
		return nil, 0, err
	}
	j.nextSeq = commitSeq + 1
	j.size += int64(len(batch))
	if m := j.metrics; m != nil {
		m.AppendSeconds.ObserveSince(start)
		m.AppendBytes.Add(len(batch))
		m.AppendRecords.Add(len(recs))
		m.SizeBytes.Set(float64(j.size))
	}
	if j.onAppend != nil {
		// Chain replication: a promoted follower that is itself a
		// leader re-ships the batch downstream. Fresh copy, as in
		// Append, so the observer may retain it.
		j.onAppend(firstSeq, commitSeq, append([]byte(nil), batch...))
	}
	return recs, commitSeq, nil
}

// InstallSnapshot atomically replaces the local store with a
// leader-shipped snapshot rendering: the snapshot is validated, written
// with the same write-temp-rename-syncdir discipline as a local
// compaction, the journal restarts empty, and the journal adopts the
// snapshot's sequence horizon. It returns the snapshot's records so the
// caller can rebuild its in-memory state from scratch, and the adopted
// last sequence number. The rendering must carry a "!lastseq" line — a
// snapshot without a horizon cannot anchor the stream that follows it.
//
//cpvet:lockheld installing a snapshot atomically supersedes the local tail; appends racing the swap would write into a file about to be truncated
func (j *Journal) InstallSnapshot(data []byte) ([]Record, uint64, error) {
	recs, lastSeq, hasMeta, err := parseSnapshot(data)
	if err != nil {
		return nil, 0, err
	}
	if !hasMeta {
		return nil, 0, fmt.Errorf("journal: replicated snapshot has no %q line", strings.TrimSpace(metaPrefix))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, 0, ErrClosed
	}
	if j.wedged != nil {
		return nil, 0, j.wedged
	}
	tmp := filepath.Join(j.dir, snapshotTemp)
	if err := writeFileSync(j.fsys, tmp, string(data)); err != nil {
		return nil, 0, err
	}
	if err := j.fsys.Rename(tmp, filepath.Join(j.dir, snapshotFile)); err != nil {
		return nil, 0, fmt.Errorf("journal: snapshot rename: %w", err)
	}
	if err := syncDir(j.fsys, j.dir); err != nil {
		return nil, 0, err
	}
	// The snapshot owns everything up to lastSeq; local journal state
	// (whatever divergent or stale tail it held) is superseded.
	if err := j.f.Truncate(0); err != nil {
		return nil, 0, fmt.Errorf("journal: resetting after snapshot install: %w", err)
	}
	j.size = 0
	if _, err := j.f.Write([]byte(fileHeader + "\n")); err != nil {
		return nil, 0, fmt.Errorf("journal: resetting after snapshot install: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return nil, 0, fmt.Errorf("journal: fsync: %w", err)
	}
	j.size = int64(len(fileHeader) + 1)
	j.nextSeq = lastSeq + 1
	if m := j.metrics; m != nil {
		m.SnapshotBytes.Set(float64(len(data)))
		m.SizeBytes.Set(float64(j.size))
	}
	return recs, lastSeq, nil
}
