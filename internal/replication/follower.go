package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"contextpref/internal/journal"
	"contextpref/internal/tracing"
)

// ErrPromoted is returned by Follower.Run when the follower leaves the
// replication stream to take over as leader — either by operator
// signal (Promote) or because the leader went silent past
// PromoteAfter. The caller owns the actual role change: attach a
// persister, flip the health role, start serving writes.
var ErrPromoted = errors.New("replication: follower promoted")

// ErrHandshakeRefused is returned by Follower.Run when the leader
// answers the hello with a refusal frame — most commonly a shard-count
// mismatch between the two stores. Retrying cannot help: the topology
// is wrong, and grafting anyway would corrupt the store, so the
// refusal is fatal to the whole Run, not one segment.
var ErrHandshakeRefused = errors.New("replication: handshake refused by leader")

// FollowerConfig tunes a Follower. DialSegment, ApplySegment, and
// ResetSegment are required; everything else has serviceable defaults.
type FollowerConfig struct {
	// DialSegment opens a connection to the leader for one segment's
	// stream. Production followers dial the same address for every
	// segment; tests use the segment to fault one stream while leaving
	// the others healthy, or splice in flaky in-memory connections.
	DialSegment func(ctx context.Context, segment int) (net.Conn, error)
	// ApplySegment folds one replicated batch's records into the
	// segment's shard of the in-memory state, after the batch is
	// durable in the local journal segment. An error is a local fault
	// that stops the segment's stream.
	ApplySegment func(segment int, recs []journal.Record) error
	// ResetSegment rebuilds one shard's in-memory state from scratch
	// with a snapshot's records, discarding whatever was there — the
	// segment fell behind the leader's compaction horizon and
	// bootstraps fresh. It must clear only its own shard.
	ResetSegment func(segment int, recs []journal.Record) error
	// SegmentFault, when non-nil, is called once when one segment's
	// stream stops on a local fault (wedged segment journal, failed
	// apply) — the hook that degrades that shard's health. The other
	// segments keep replicating.
	SegmentFault func(segment int, err error)
	// Backoff is the base reconnect delay, jittered by Rand to a
	// uniform draw from [Backoff/2, Backoff*3/2); defaults to 500ms.
	// Each segment stream retries independently on its own backoff, so
	// one flapping stream never delays another.
	Backoff time.Duration
	// Rand jitters reconnect backoff. Injected, never the global
	// source, so chaos runs replay deterministically; nil disables
	// jitter. Run derives one independent source per segment from it
	// (rand.Rand is not goroutine-safe).
	Rand *rand.Rand
	// ReadTimeout bounds the silence on an established session before
	// the follower treats it as dead and reconnects; defaults to 5s.
	// Keep it a few heartbeat intervals wide.
	ReadTimeout time.Duration
	// PromoteAfter, when positive, is the total leader silence —
	// spanning reconnect attempts, measured across every segment
	// stream — after which the follower declares the leader wedged and
	// Run returns ErrPromoted. Only frames received from the leader
	// count as hearing from it: local apply progress, reconnect
	// attempts, and backoff sleeps on any segment never feed the
	// watchdog. Zero disables automatic promotion; Promote still
	// works.
	PromoteAfter time.Duration
	// Logger receives session lifecycle events; nil discards them.
	Logger *slog.Logger
	// SegmentMetrics, when non-nil, holds one instrument set per
	// segment (index-aligned): lag, applied records, reconnects, and
	// installed snapshot sizes, attributable per shard.
	SegmentMetrics []*Metrics
	// Tracer, when non-nil, records a replication.graft trace per
	// applied batch, with the local durable append (and its fsync) as
	// child spans. Graft traces are follower-originated roots.
	Tracer *tracing.Tracer
}

// metricsFor resolves the instrument set for one segment; nil without
// telemetry.
func (c *FollowerConfig) metricsFor(seg int) *Metrics {
	if seg < len(c.SegmentMetrics) {
		return c.SegmentMetrics[seg]
	}
	return nil
}

// segmentState is one segment stream's replication bookkeeping.
type segmentState struct {
	appliedSeq uint64    // newest sequence durably applied locally
	leaderSeq  uint64    // newest sequence the leader has announced
	freshAt    time.Time // last instant appliedSeq covered leaderSeq
	fault      error     // non-nil: the stream stopped on a local fault
}

// Follower tails a leader's replication stream into the local journal
// segments and tracks how stale each is. It owns the transport and
// durability; the in-memory state is the caller's, mutated only
// through the ApplySegment/ResetSegment callbacks (serialized per
// segment — each segment stream is a single loop, and segments never
// share state).
//
// The follower runs one connection per segment. The segments are
// independent fault domains: a stalled, desynced, or faulted stream
// degrades only its own shard, retried on its own jittered backoff,
// while the promotion watchdog spans them all — the leader is silent
// only when no segment has heard from it.
type Follower struct {
	segs []*journal.Journal
	cfg  FollowerConfig
	log  *slog.Logger

	mu        sync.Mutex
	st        []segmentState
	lastHeard time.Time // last frame from the leader on any segment

	promoteCh chan struct{}
	promoted  sync.Once
}

// NewShardedFollower builds a follower over one local journal segment
// per shard, index-aligned with the directory's shard numbering. The
// shard count must match the leader's; the handshake refuses a
// mismatch. Run starts one tailing loop per segment.
func NewShardedFollower(segs []*journal.Journal, cfg FollowerConfig) (*Follower, error) {
	if len(segs) == 0 {
		return nil, errors.New("replication: NewShardedFollower needs at least one segment")
	}
	if cfg.DialSegment == nil || cfg.ApplySegment == nil || cfg.ResetSegment == nil {
		return nil, errors.New("replication: FollowerConfig needs DialSegment, ApplySegment, and ResetSegment")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 5 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Follower{
		segs:      segs,
		cfg:       cfg,
		log:       log,
		st:        make([]segmentState, len(segs)),
		promoteCh: make(chan struct{}),
	}, nil
}

// Segments returns the number of journal segments the follower tails.
func (f *Follower) Segments() int { return len(f.segs) }

// SegmentStaleness reports how long one segment's local state has
// possibly been behind the leader: zero-ish while caught up (it grows
// between heartbeats and snaps back), the time since the last
// confirmed catch-up while lagging or disconnected, and effectively
// infinite before the first sync. Serving code gates reads per shard
// against the -max-staleness bound, so one lagging stream does not fail
// the whole store.
func (f *Follower) SegmentStaleness(seg int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return stalenessOf(f.st[seg].freshAt)
}

func stalenessOf(freshAt time.Time) time.Duration {
	if freshAt.IsZero() {
		return time.Duration(1<<63 - 1)
	}
	return time.Since(freshAt)
}

// AppliedSeqSegment returns the newest sequence number durably applied
// to one segment's journal and in-memory shard.
func (f *Follower) AppliedSeqSegment(seg int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st[seg].appliedSeq
}

// SegmentFaultErr returns the local fault that stopped one segment's
// stream, or nil while it is live (reconnecting streams are live: a
// transport fault is not a local fault).
func (f *Follower) SegmentFaultErr(seg int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st[seg].fault
}

// Promote asks the running loop to step out of the stream; Run returns
// ErrPromoted. Safe to call at any time, from any goroutine, more than
// once.
func (f *Follower) Promote() {
	f.promoted.Do(func() { close(f.promoteCh) })
}

// markFresh records that segment seg's local state covered everything
// its leader stream had announced as of now. It never touches
// lastHeard: freshness is local bookkeeping, not evidence the leader
// is alive.
func (f *Follower) markFresh(seg int) {
	m := f.cfg.metricsFor(seg)
	f.mu.Lock()
	st := &f.st[seg]
	if st.appliedSeq >= st.leaderSeq {
		st.freshAt = time.Now()
		if m != nil {
			m.Lag.Set(0)
		}
	} else if m != nil && !st.freshAt.IsZero() {
		m.Lag.Set(time.Since(st.freshAt).Seconds())
	}
	f.mu.Unlock()
}

// heard records evidence of leader liveness: a frame arrived on some
// segment's stream. This is the only input to the promotion watchdog.
func (f *Follower) heard() {
	f.mu.Lock()
	f.lastHeard = time.Now()
	f.mu.Unlock()
}

// Run tails the leader until ctx is canceled (returns ctx.Err()), the
// follower is promoted (returns ErrPromoted), the leader refuses the
// handshake (returns ErrHandshakeRefused — the topologies disagree),
// or local faults have stopped every segment (returns an error
// wrapping the last fault). Each segment tails on its own connection
// and reconnects from transport faults with its own jittered backoff,
// resuming idempotently from its local journal's sequence horizon; a
// local fault on one segment stops only that stream (reported through
// SegmentFault) and Run keeps tailing the rest.
func (f *Follower) Run(ctx context.Context) error {
	f.mu.Lock()
	for i, j := range f.segs {
		f.st[i].appliedSeq = j.LastSeq()
	}
	f.lastHeard = time.Now()
	f.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	// LIFO: cancel the segment loops first, then wait them out, so the
	// Apply/Reset callbacks are quiescent by the time Run returns and
	// the caller changes roles.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	// One reconnecting loop per segment, each with its own derived
	// jitter source (the shared one is not goroutine-safe).
	fatalCh := make(chan error, len(f.segs))
	for i := range f.segs {
		var rnd *rand.Rand
		if f.cfg.Rand != nil {
			rnd = rand.New(rand.NewSource(f.cfg.Rand.Int63()))
		}
		wg.Add(1)
		go func(seg int, rnd *rand.Rand) {
			defer wg.Done()
			f.runSegment(ctx, seg, rnd, fatalCh)
		}(i, rnd)
	}

	// The promotion watchdog spans every segment: the leader is silent
	// only if no stream has heard a frame. Progress on one segment —
	// applies, reconnect attempts, backoff — must never defer a
	// promotion the others' silence has earned, and silence on one
	// segment must never trigger a promotion while another still hears
	// heartbeats.
	var tickCh <-chan time.Time
	if f.cfg.PromoteAfter > 0 {
		interval := f.cfg.PromoteAfter / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tickCh = ticker.C
	}
	faulted := 0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-f.promoteCh:
			return ErrPromoted
		case err := <-fatalCh:
			if errors.Is(err, ErrHandshakeRefused) {
				return err
			}
			if faulted++; faulted == len(f.segs) {
				return fmt.Errorf("replication: every segment stream stopped on a local fault; last: %w", err)
			}
		case <-tickCh:
			f.mu.Lock()
			silence := time.Since(f.lastHeard)
			f.mu.Unlock()
			if silence > f.cfg.PromoteAfter {
				f.log.Warn("leader silent past promote-after; promoting",
					"silence", silence, "promote_after", f.cfg.PromoteAfter)
				return ErrPromoted
			}
		}
	}
}

// runSegment reconnects one segment's stream until cancellation,
// promotion, or a local fault.
func (f *Follower) runSegment(ctx context.Context, seg int, rnd *rand.Rand, fatalCh chan<- error) {
	for {
		err := f.session(ctx, seg)
		switch {
		case err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctx.Err() != nil {
				return
			}
		case errors.Is(err, ErrPromoted):
			return
		case errors.Is(err, ErrHandshakeRefused):
			fatalCh <- err
			return
		case isFatal(err):
			// A local fault: this segment's journal or in-memory shard
			// cannot take the stream. Stop this stream only; the other
			// segments are separate fault domains.
			f.mu.Lock()
			f.st[seg].fault = err
			f.mu.Unlock()
			if cb := f.cfg.SegmentFault; cb != nil {
				cb(seg, err)
			}
			fatalCh <- fmt.Errorf("segment %d: %w", seg, err)
			return
		}
		if m := f.cfg.metricsFor(seg); m != nil {
			m.Reconnects.Inc()
		}
		f.log.Warn("replication session lost; reconnecting", "segment", seg, "error", err)
		if err := f.sleep(ctx, jittered(rnd, f.cfg.Backoff)); err != nil {
			return
		}
	}
}

// isFatal classifies session errors: local durability or state-apply
// failures cannot be fixed by reconnecting.
func isFatal(err error) bool {
	return errors.Is(err, journal.ErrWedged) || errors.Is(err, journal.ErrClosed) ||
		errors.Is(err, errApply)
}

// errApply wraps Apply/Reset callback failures so Run can classify
// them as fatal.
var errApply = errors.New("replication: applying replicated state")

// session runs one connection of one segment's stream to the leader:
// hello, bootstrap, then tail until a fault.
func (f *Follower) session(ctx context.Context, seg int) error {
	conn, err := f.cfg.DialSegment(ctx, seg)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Promotion and cancellation must cut through a blocked read.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-f.promoteCh:
			conn.Close()
		case <-done:
		}
	}()

	jrn := f.segs[seg]
	if err := writeFrame(conn, frameHello, 0, encodeHello(uint32(len(f.segs)), uint32(seg), jrn.LastSeq())); err != nil {
		return err
	}
	f.log.Info("replication session established",
		"leader", conn.RemoteAddr().String(), "segment", seg, "after", jrn.LastSeq())
	for {
		select {
		case <-f.promoteCh:
			return ErrPromoted
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout)); err != nil {
			return err
		}
		typ, frameSeg, payload, err := readFrame(conn)
		if err != nil {
			return err
		}
		f.heard()
		if typ == frameRefuse {
			return fmt.Errorf("%w: %s", ErrHandshakeRefused, decodeRefusal(payload))
		}
		if int(frameSeg) != seg {
			return fmt.Errorf("replication: %c frame for segment %d on segment %d's stream", typ, frameSeg, seg)
		}
		switch typ {
		case frameSnapshot:
			if err := f.installSnapshot(seg, payload); err != nil {
				return err
			}
		case frameBatch:
			if err := f.applyBatch(conn, seg, payload); err != nil {
				return err
			}
		case frameHeartbeat:
			seq, err := decodeSeq(payload)
			if err != nil {
				return err
			}
			f.mu.Lock()
			if seq > f.st[seg].leaderSeq {
				f.st[seg].leaderSeq = seq
			}
			f.mu.Unlock()
			f.markFresh(seg)
			if err := writeFrame(conn, frameAck, uint32(seg), encodeSeq(f.AppliedSeqSegment(seg))); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replication: leader sent unexpected %c frame", typ)
		}
	}
}

// installSnapshot durably installs one segment's bootstrap snapshot
// and rebuilds that shard's in-memory state from it.
func (f *Follower) installSnapshot(seg int, payload []byte) error {
	horizon, data, err := decodeSnapshot(payload)
	if err != nil {
		return err
	}
	recs, lastSeq, err := f.segs[seg].InstallSnapshot(data)
	if err != nil {
		return err
	}
	if lastSeq != horizon {
		return fmt.Errorf("replication: snapshot declares horizon %d but renders %d", horizon, lastSeq)
	}
	if err := f.cfg.ResetSegment(seg, recs); err != nil {
		return fmt.Errorf("%w: reset: %w", errApply, err)
	}
	f.mu.Lock()
	f.st[seg].appliedSeq = lastSeq
	if lastSeq > f.st[seg].leaderSeq {
		f.st[seg].leaderSeq = lastSeq
	}
	f.mu.Unlock()
	if m := f.cfg.metricsFor(seg); m != nil {
		m.SnapshotBytes.Set(float64(len(data)))
		m.Applied.Add(len(recs))
	}
	f.markFresh(seg)
	f.log.Info("replication snapshot installed", "segment", seg, "records", len(recs), "horizon", lastSeq)
	return nil
}

// applyBatch grafts one shipped batch: durable first, then in-memory,
// then the ack of the segment's durably-applied watermark. Duplicates are skipped idempotently; a sequence gap is
// repaired by reconnecting (the next hello triggers a bootstrap).
func (f *Follower) applyBatch(conn net.Conn, seg int, payload []byte) error {
	firstSeq, commitSeq, data, err := decodeBatch(payload)
	if err != nil {
		return err
	}
	ctx, sp := f.cfg.Tracer.StartRoot(context.Background(), "replication.graft", tracing.Traceparent{})
	defer sp.Release() // runs after the End below; the graft is synchronous
	defer sp.End()
	sp.SetInt("segment", int64(seg))
	sp.SetInt("bytes", int64(len(data)))
	sp.SetInt("commit_seq", int64(commitSeq))
	recs, lastSeq, err := f.segs[seg].AppendReplicatedCtx(ctx, data)
	if err != nil {
		if errors.Is(err, journal.ErrOutOfSync) {
			err = fmt.Errorf("replication: batch [%d,%d] does not graft locally: %w", firstSeq, commitSeq, err)
		}
		sp.Fail(err)
		return err
	}
	if recs != nil {
		if err := f.cfg.ApplySegment(seg, recs); err != nil {
			err = fmt.Errorf("%w: %w", errApply, err)
			sp.Fail(err)
			return err
		}
		sp.SetInt("records", int64(len(recs)))
		if m := f.cfg.metricsFor(seg); m != nil {
			m.Applied.Add(len(recs))
		}
	}
	f.mu.Lock()
	f.st[seg].appliedSeq = lastSeq
	if commitSeq > f.st[seg].leaderSeq {
		f.st[seg].leaderSeq = commitSeq
	}
	f.mu.Unlock()
	f.markFresh(seg)
	return writeFrame(conn, frameAck, uint32(seg), encodeSeq(lastSeq))
}

// sleep waits d or until cancellation/promotion.
func (f *Follower) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-f.promoteCh:
		return ErrPromoted
	}
}

// jittered spreads a backoff to a uniform draw from [d/2, d*3/2) so
// followers that lost the same leader do not reconnect in lockstep.
// The source is injected; nil means no jitter.
func jittered(rnd *rand.Rand, d time.Duration) time.Duration {
	if rnd == nil || d <= 0 {
		return d
	}
	return d/2 + time.Duration(rnd.Int63n(int64(d)))
}
