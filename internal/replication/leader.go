package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"contextpref/internal/journal"
	"contextpref/internal/tracing"
)

// LeaderConfig tunes a Leader. The zero value is usable: discard
// logging, no telemetry, default heartbeat interval and send buffer.
type LeaderConfig struct {
	// Heartbeat is the interval between heartbeat frames on an idle
	// session; defaults to 1s. Followers use missed heartbeats to
	// detect a wedged leader, so it should be several times smaller
	// than the follower's promote-after timeout.
	Heartbeat time.Duration
	// SendBuffer is the per-session batch queue length; defaults to
	// 128. A follower that falls further behind than the buffer holds
	// is disconnected and resynchronizes on reconnect, so a slow
	// replica never blocks the leader's append path.
	SendBuffer int
	// Logger receives session lifecycle events; nil discards them.
	Logger *slog.Logger
	// SegmentMetrics, when non-nil, holds one instrument set per
	// journal segment (index-aligned with the segments passed to
	// NewShardedLeader): shipped record counts and snapshot bootstrap
	// sizes, attributable per shard.
	SegmentMetrics []*Metrics
	// Tracer, when non-nil, records a replication.ship trace per
	// shipped batch. Ship traces are leader-originated roots (there is
	// no inbound request to parent them under); retention follows the
	// tracer's usual slow/error/sample policy.
	Tracer *tracing.Tracer
}

// metricsFor resolves the instrument set for one segment; nil without
// telemetry.
func (c *LeaderConfig) metricsFor(seg int) *Metrics {
	if seg < len(c.SegmentMetrics) {
		return c.SegmentMetrics[seg]
	}
	return nil
}

// Leader serves the replication protocol over a store's journal
// segments: it taps each segment's append stream, accepts follower
// sessions, bootstraps each to the current state (incrementally when
// possible, by snapshot when not), and then pushes every committed
// batch plus periodic heartbeats, collecting sequence-numbered acks.
//
// Each session carries exactly one segment, named by the follower's
// hello, so every segment replicates on its own logical stream and a
// slow or cut stream never blocks the others. The leader refuses a
// hello it does not recognize and one whose shard count does not match
// its own.
//
// The journal taps run under each journal's lock and only enqueue into
// per-session buffers — the leader never performs I/O or re-enters a
// journal from a tap.
type Leader struct {
	segs []*journal.Journal
	cfg  LeaderConfig
	log  *slog.Logger

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	acked  []uint64 // per segment: newest sequence acked by any session
	closed bool
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// subscriber is one session's batch queue, bound to one segment.
type subscriber struct {
	seg  int
	ch   chan journal.Batch
	drop chan struct{} // closed when the queue overflowed
	once sync.Once
}

func (s *subscriber) overflow() { s.once.Do(func() { close(s.drop) }) }

// NewShardedLeader builds a leader over one journal segment per shard,
// index-aligned with the directory's shard numbering, and installs an
// append tap on every segment. Followers must present the same shard
// count at handshake; each of their connections streams one segment.
// The leader serves nothing until Serve is called; Close detaches the
// taps.
func NewShardedLeader(segs []*journal.Journal, cfg LeaderConfig) *Leader {
	if len(segs) == 0 {
		panic("replication: NewShardedLeader needs at least one segment")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.SendBuffer <= 0 {
		cfg.SendBuffer = 128
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	l := &Leader{
		segs:  segs,
		cfg:   cfg,
		log:   log,
		subs:  make(map[*subscriber]struct{}),
		acked: make([]uint64, len(segs)),
		conns: make(map[net.Conn]struct{}),
	}
	for i, j := range segs {
		seg := i
		j.OnAppend(func(firstSeq, commitSeq uint64, data []byte) {
			l.ship(seg, firstSeq, commitSeq, data)
		})
	}
	return l
}

// Segments returns the number of journal segments the leader serves.
func (l *Leader) Segments() int { return len(l.segs) }

// ship fans one committed batch out to every session queue on its
// segment. Called synchronously under that journal's lock: enqueue
// only, never block. A full queue marks the session lagged; its writer
// disconnects it and the follower resynchronizes by reconnecting.
func (l *Leader) ship(seg int, firstSeq, commitSeq uint64, data []byte) {
	b := journal.Batch{FirstSeq: firstSeq, CommitSeq: commitSeq, Data: data}
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range l.subs {
		if s.seg != seg {
			continue
		}
		select {
		case s.ch <- b:
		default:
			s.overflow()
		}
	}
}

// AckedSegment returns the newest sequence number any follower has
// acknowledged as durably applied on one journal segment. Promotion
// safety is stated against this value: a promoted follower's segment
// is a prefix of the segment's acked stream.
func (l *Leader) AckedSegment(seg int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked[seg]
}

// Serve accepts follower sessions on ln until the listener closes or
// the leader is closed. It blocks; run it in its own goroutine. Serve
// may be called on several listeners concurrently.
func (l *Leader) Serve(ln net.Listener) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return errors.New("replication: leader is closed")
	}
	l.lns = append(l.lns, ln)
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("replication: accept: %w", err)
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return nil
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.serveConn(conn)
		}()
	}
}

// Close detaches the journal taps, closes the listeners and every live
// session, and waits for session goroutines to drain.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	lns := l.lns
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, j := range l.segs {
		j.OnAppend(nil)
	}
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return nil
}

// serveConn runs one follower session to completion.
func (l *Leader) serveConn(conn net.Conn) {
	peer := conn.RemoteAddr().String()
	err := l.session(conn)
	conn.Close()
	l.mu.Lock()
	delete(l.conns, conn)
	closed := l.closed
	l.mu.Unlock()
	if err != nil && !closed && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		l.log.Warn("replication session ended", "peer", peer, "error", err)
	} else {
		l.log.Debug("replication session closed", "peer", peer)
	}
}

// refuse tells the peer why its handshake cannot be served, then
// errors the session. Refusal is a protocol answer, not a transport
// fault: the follower must not retry into the same topology mismatch.
func (l *Leader) refuse(conn net.Conn, reason string) error {
	// Best-effort: the refusal is advisory; the close is authoritative.
	_ = writeFrame(conn, frameRefuse, 0, []byte(reason))
	return fmt.Errorf("replication: refused session: %s", reason)
}

func (l *Leader) session(conn net.Conn) error {
	typ, _, payload, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ != frameHello {
		return fmt.Errorf("replication: session opened with %c frame, want hello", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return l.refuse(conn, err.Error())
	}
	if int(h.shards) != len(l.segs) {
		return l.refuse(conn, fmt.Sprintf(
			"shard count mismatch: leader has %d journal segments, follower declared %d", len(l.segs), h.shards))
	}
	seg := int(h.segment)
	jrn := l.segs[seg]
	followerSeq := h.lastSeq
	metrics := l.cfg.metricsFor(seg)

	// Subscribe before reading the tail: batches committed during the
	// bootstrap read land in the queue, and the dedupe below drops the
	// overlap. The queue is registered first so nothing can fall in
	// the gap between the two.
	sub := &subscriber{seg: seg, ch: make(chan journal.Batch, l.cfg.SendBuffer), drop: make(chan struct{})}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return net.ErrClosed
	}
	l.subs[sub] = struct{}{}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.subs, sub)
		l.mu.Unlock()
	}()

	// Ack reader: updates the segment's acked watermark and unblocks
	// the writer on disconnect by closing the connection. It must start
	// before the bootstrap sends below — the follower acks each batch
	// as it lands, and an unread ack would deadlock an unbuffered
	// transport against the next bootstrap write.
	readErr := make(chan error, 1)
	go func() {
		for {
			typ, ackSeg, payload, err := readFrame(conn)
			if err != nil {
				readErr <- err
				conn.Close()
				return
			}
			if typ != frameAck {
				readErr <- fmt.Errorf("replication: follower sent %c frame, want ack", typ)
				conn.Close()
				return
			}
			if ackSeg != h.segment {
				readErr <- fmt.Errorf("replication: ack for segment %d on segment %d's stream", ackSeg, h.segment)
				conn.Close()
				return
			}
			seq, err := decodeSeq(payload)
			if err != nil {
				readErr <- err
				conn.Close()
				return
			}
			l.mu.Lock()
			if seq > l.acked[seg] {
				l.acked[seg] = seq
			}
			l.mu.Unlock()
		}
	}()

	snap, batches, lastSeq, err := jrn.TailSince(followerSeq)
	if err != nil {
		return err
	}
	var sentSeq uint64 // newest commitSeq this session has written
	if snap != nil {
		var snapSeq uint64
		// The snapshot's own horizon anchors the stream; recompute it
		// from the batches' base when the rendering predates them.
		if len(batches) > 0 {
			snapSeq = batches[0].FirstSeq - 1
		} else {
			snapSeq = lastSeq
		}
		if err := writeSnapshotFrame(conn, h.segment, snapSeq, snap); err != nil {
			return err
		}
		sentSeq = snapSeq
		if metrics != nil {
			metrics.SnapshotBytes.Set(float64(len(snap)))
		}
		l.log.Info("replication bootstrap by snapshot",
			"peer", conn.RemoteAddr().String(), "segment", seg, "bytes", len(snap), "horizon", snapSeq)
	} else {
		sentSeq = followerSeq
	}
	send := func(b journal.Batch) error {
		if b.CommitSeq <= sentSeq {
			return nil // duplicate of the bootstrap read or the queue overlap
		}
		_, sp := l.cfg.Tracer.StartRoot(context.Background(), "replication.ship", tracing.Traceparent{})
		sp.SetInt("segment", int64(seg))
		sp.SetInt("records", int64(b.CommitSeq-b.FirstSeq))
		sp.SetInt("bytes", int64(len(b.Data)))
		sp.SetInt("commit_seq", int64(b.CommitSeq))
		err := writeBatchFrame(conn, h.segment, b.FirstSeq, b.CommitSeq, b.Data)
		sp.Fail(err)
		sp.End()
		sp.Release()
		if err != nil {
			return err
		}
		sentSeq = b.CommitSeq
		if metrics != nil {
			metrics.Shipped.Add(int(b.CommitSeq - b.FirstSeq))
		}
		return nil
	}
	for _, b := range batches {
		if err := send(b); err != nil {
			return err
		}
	}

	ticker := time.NewTicker(l.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case b := <-sub.ch:
			if err := send(b); err != nil {
				return err
			}
		case <-ticker.C:
			if err := writeFrame(conn, frameHeartbeat, h.segment, encodeSeq(jrn.LastSeq())); err != nil {
				return err
			}
		case <-sub.drop:
			// The session fell behind the send buffer; cut it loose
			// and let the reconnect resynchronize from disk.
			return fmt.Errorf("replication: follower lagged past the send buffer at seq %d", sentSeq)
		case err := <-readErr:
			return err
		}
	}
}
