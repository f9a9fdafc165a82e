package replication

// Coverage for per-segment streams over a store of N > 1 shards.
// Golden bytes pin the hello, a tagged frame and the refusal frame so
// the wire format cannot drift; handshake tests pin that topology
// mismatches and the retired cprepl/1 hello are refused, not grafted;
// fault-domain tests show one segment's stall or local fault degrading
// only its own shard; and the watchdog tests pin the promotion
// contract — fire on total leader silence even while segment loops are
// locally busy, never fire while any segment still hears frames.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
)

// shardRecs builds n records for a per-segment user so batches are
// distinguishable across segments.
func shardRecs(seg, n int, tag string) []journal.Record {
	recs := make([]journal.Record, n)
	for i := range recs {
		recs[i] = journal.Record{
			Op:   journal.OpAdd,
			User: fmt.Sprintf("seg%d", seg),
			Line: fmt.Sprintf("%s-%d-%d", tag, seg, i),
		}
	}
	return recs
}

type shardedPair struct {
	leaderJs   []*journal.Journal
	followerJs []*journal.Journal
	leader     *Leader
	follower   *Follower
	states     []*replicaState
	resets     []atomic.Int64
	ln         *memListener
	runErr     chan error
	cancel     context.CancelFunc

	mu          sync.Mutex
	applyFaults map[int]error
}

// setApplyFault makes every subsequent apply on segment seg fail with
// err — a local (non-transport) fault on that shard only.
func (p *shardedPair) setApplyFault(seg int, err error) {
	p.mu.Lock()
	p.applyFaults[seg] = err
	p.mu.Unlock()
}

func (p *shardedPair) applyFault(seg int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applyFaults[seg]
}

// startShardedPair wires an n-segment leader and a running sharded
// follower over one in-memory listener (sessions self-identify their
// segment in the hello, exactly like production sharing one address).
func startShardedPair(t *testing.T, n int, fcfg FollowerConfig) *shardedPair {
	t.Helper()
	p := &shardedPair{
		states:      make([]*replicaState, n),
		resets:      make([]atomic.Int64, n),
		applyFaults: make(map[int]error),
	}
	for i := 0; i < n; i++ {
		lj, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
		if err != nil {
			t.Fatal(err)
		}
		fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "follower")
		if err != nil {
			t.Fatal(err)
		}
		p.leaderJs = append(p.leaderJs, lj)
		p.followerJs = append(p.followerJs, fj)
		p.states[i] = &replicaState{}
	}
	p.ln = newMemListener()
	p.leader = NewShardedLeader(p.leaderJs, LeaderConfig{Heartbeat: 10 * time.Millisecond})
	go p.leader.Serve(p.ln)

	if fcfg.DialSegment == nil {
		fcfg.DialSegment = p.ln.dial
	}
	fcfg.ApplySegment = func(seg int, recs []journal.Record) error {
		if err := p.applyFault(seg); err != nil {
			return err
		}
		return p.states[seg].apply(seg, recs)
	}
	fcfg.ResetSegment = func(seg int, recs []journal.Record) error {
		p.resets[seg].Add(1)
		return p.states[seg].reset(seg, recs)
	}
	if fcfg.Backoff == 0 {
		fcfg.Backoff = time.Millisecond
	}
	if fcfg.ReadTimeout == 0 {
		fcfg.ReadTimeout = 200 * time.Millisecond
	}
	if fcfg.Rand == nil {
		fcfg.Rand = rand.New(rand.NewSource(43))
	}
	var err error
	p.follower, err = NewShardedFollower(p.followerJs, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.runErr = make(chan error, 1)
	go func() { p.runErr <- p.follower.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-p.runErr:
		case <-time.After(5 * time.Second):
			t.Error("sharded follower.Run did not return after cancel")
		}
		p.leader.Close()
		for i := range p.leaderJs {
			p.leaderJs[i].Close()
			p.followerJs[i].Close()
		}
	})
	return p
}

// settleSegment waits until one segment's follower state and the
// leader's ack watermark both cover the segment's journal.
func (p *shardedPair) settleSegment(t *testing.T, seg int) {
	t.Helper()
	want := p.leaderJs[seg].LastSeq()
	waitFor(t, 5*time.Second, fmt.Sprintf("segment %d to reach seq %d", seg, want), func() bool {
		return p.follower.AppliedSeqSegment(seg) == want
	})
	waitFor(t, 5*time.Second, fmt.Sprintf("segment %d ack", seg), func() bool {
		return p.leader.AckedSegment(seg) == want
	})
}

func (p *shardedPair) settleAll(t *testing.T) {
	t.Helper()
	for i := range p.leaderJs {
		p.settleSegment(t, i)
	}
}

func TestShardedSteadyStatePerSegmentStreams(t *testing.T) {
	const n = 4
	p := startShardedPair(t, n, FollowerConfig{})
	want := make([][]journal.Record, n)
	for round := 0; round < 3; round++ {
		for seg := 0; seg < n; seg++ {
			recs := shardRecs(seg, 2, fmt.Sprintf("r%d", round))
			if err := p.leaderJs[seg].Append(recs...); err != nil {
				t.Fatal(err)
			}
			want[seg] = append(want[seg], recs...)
		}
	}
	p.settleAll(t)
	for seg := 0; seg < n; seg++ {
		got := p.states[seg].snapshot()
		if len(got) != len(want[seg]) {
			t.Fatalf("segment %d has %d records, want %d", seg, len(got), len(want[seg]))
		}
		for i := range got {
			if got[i] != want[seg][i] {
				t.Fatalf("segment %d record %d: %+v, want %+v", seg, i, got[i], want[seg][i])
			}
			// No cross-segment leakage: every record names its own shard.
			if got[i].User != fmt.Sprintf("seg%d", seg) {
				t.Fatalf("segment %d grafted record for %q", seg, got[i].User)
			}
		}
	}
	// Every segment's staleness collapses under the heartbeat cadence.
	for seg := 0; seg < n; seg++ {
		seg := seg
		waitFor(t, time.Second, fmt.Sprintf("segment %d staleness", seg), func() bool {
			return p.follower.SegmentStaleness(seg) < 150*time.Millisecond
		})
	}
	if p.follower.Segments() != n || p.leader.Segments() != n {
		t.Fatalf("segment counts: follower %d, leader %d, want %d",
			p.follower.Segments(), p.leader.Segments(), n)
	}
}

func TestShardedSnapshotBootstrapPerSegment(t *testing.T) {
	// Segment 0's history is compacted beyond a cold follower's horizon,
	// segment 1's is not: only segment 0 bootstraps by snapshot.
	ljs := make([]*journal.Journal, 2)
	for i := range ljs {
		j, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		ljs[i] = j
	}
	pre := shardRecs(0, 5, "pre")
	if err := ljs[0].Append(pre...); err != nil {
		t.Fatal(err)
	}
	if err := ljs[0].Snapshot(pre); err != nil {
		t.Fatal(err)
	}
	if err := ljs[0].Append(shardRecs(0, 2, "post")...); err != nil {
		t.Fatal(err)
	}
	if err := ljs[1].Append(shardRecs(1, 3, "plain")...); err != nil {
		t.Fatal(err)
	}

	ln := newMemListener()
	leader := NewShardedLeader(ljs, LeaderConfig{Heartbeat: 10 * time.Millisecond})
	go leader.Serve(ln)
	defer leader.Close()

	fjs := make([]*journal.Journal, 2)
	states := [2]*replicaState{{}, {}}
	var resets [2]atomic.Int64
	for i := range fjs {
		j, _, err := journal.OpenFS(faultfs.NewMemFS(), "follower")
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		fjs[i] = j
	}
	f, err := NewShardedFollower(fjs, FollowerConfig{
		DialSegment: ln.dial,
		ApplySegment: func(seg int, recs []journal.Record) error {
			return states[seg].apply(seg, recs)
		},
		ResetSegment: func(seg int, recs []journal.Record) error {
			resets[seg].Add(1)
			return states[seg].reset(seg, recs)
		},
		Backoff:     time.Millisecond,
		ReadTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() { cancel(); <-done }()

	for seg := 0; seg < 2; seg++ {
		seg := seg
		waitFor(t, 5*time.Second, fmt.Sprintf("segment %d bootstrap", seg), func() bool {
			return f.AppliedSeqSegment(seg) == ljs[seg].LastSeq()
		})
	}
	if got := resets[0].Load(); got != 1 {
		t.Fatalf("segment 0 reset %d times, want 1 (snapshot bootstrap)", got)
	}
	if got := resets[1].Load(); got != 0 {
		t.Fatalf("segment 1 reset %d times, want 0 (incremental tail)", got)
	}
	if got := len(states[0].snapshot()); got != 7 {
		t.Fatalf("segment 0 bootstrapped %d records, want 7", got)
	}
	if got := len(states[1].snapshot()); got != 3 {
		t.Fatalf("segment 1 tailed %d records, want 3", got)
	}
}

func TestSegmentFaultDegradesOnlyThatShard(t *testing.T) {
	// A local apply fault on segment 1 stops that stream only: the hook
	// fires for segment 1, the other segments keep replicating, and Run
	// keeps going until every segment has faulted.
	var faultMu sync.Mutex
	faults := make(map[int]error)
	p := startShardedPair(t, 3, FollowerConfig{
		SegmentFault: func(seg int, err error) {
			faultMu.Lock()
			faults[seg] = err
			faultMu.Unlock()
		},
	})
	p.setApplyFault(1, errors.New("shard 1 state rejects the graft"))
	for seg := 0; seg < 3; seg++ {
		if err := p.leaderJs[seg].Append(shardRecs(seg, 2, "a")...); err != nil {
			t.Fatal(err)
		}
	}
	p.settleSegment(t, 0)
	p.settleSegment(t, 2)
	waitFor(t, 5*time.Second, "segment 1 fault to be reported", func() bool {
		return p.follower.SegmentFaultErr(1) != nil
	})
	faultMu.Lock()
	_, hooked := faults[1]
	others := len(faults)
	faultMu.Unlock()
	if !hooked || others != 1 {
		t.Fatalf("SegmentFault fired for %v, want exactly segment 1", faults)
	}
	if err := p.follower.SegmentFaultErr(0); err != nil {
		t.Fatalf("segment 0 faulted: %v", err)
	}
	select {
	case err := <-p.runErr:
		t.Fatalf("Run returned %v with two segments still healthy", err)
	default:
	}
	// The healthy shards still make progress after the fault.
	if err := p.leaderJs[0].Append(shardRecs(0, 1, "b")...); err != nil {
		t.Fatal(err)
	}
	p.settleSegment(t, 0)

	// Fault the remaining segments: Run now returns the aggregate.
	p.setApplyFault(0, errors.New("shard 0 down"))
	p.setApplyFault(2, errors.New("shard 2 down"))
	for _, seg := range []int{0, 2} {
		if err := p.leaderJs[seg].Append(shardRecs(seg, 1, "c")...); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-p.runErr:
		if err == nil || !strings.Contains(err.Error(), "every segment stream stopped") {
			t.Fatalf("Run returned %v, want the all-segments-faulted aggregate", err)
		}
		p.runErr <- nil // keep Cleanup's drain happy
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after every segment faulted")
	}
}

func TestSegmentFaultOneSegment(t *testing.T) {
	// One segment is the N = 1 case of the same contract: the hook
	// fires, and Run returns once its only stream has stopped.
	var hooked atomic.Int64
	p := startShardedPair(t, 1, FollowerConfig{
		SegmentFault: func(int, error) { hooked.Add(1) },
	})
	p.setApplyFault(0, errors.New("shard 0 state rejects the graft"))
	if err := p.leaderJs[0].Append(shardRecs(0, 1, "a")...); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.runErr:
		if err == nil || !strings.Contains(err.Error(), "shard 0 state rejects the graft") {
			t.Fatalf("Run returned %v, want the segment's fault", err)
		}
		p.runErr <- nil // keep Cleanup's drain happy
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after its only segment faulted")
	}
	if n := hooked.Load(); n != 1 {
		t.Fatalf("SegmentFault fired %d times, want 1", n)
	}
}

func TestSegmentCutDegradesOnlyThatShard(t *testing.T) {
	// One segment's transport is cut (live conn killed, redials refused)
	// while the others keep hearing heartbeats: no promotion fires, the
	// cut shard's staleness grows past the bound while the healthy
	// shard's stays collapsed, and healing the transport lets the cut
	// shard resync idempotently.
	const promoteAfter = 80 * time.Millisecond
	var cut atomic.Bool
	var connMu sync.Mutex
	var seg1Conns []net.Conn
	ln := newMemListener()
	p := startShardedPair(t, 2, FollowerConfig{
		DialSegment: func(ctx context.Context, seg int) (net.Conn, error) {
			if seg == 1 && cut.Load() {
				return nil, errors.New("injected: segment 1 transport refused")
			}
			c, err := ln.dial(ctx, seg)
			if err != nil {
				return nil, err
			}
			if seg == 1 {
				connMu.Lock()
				seg1Conns = append(seg1Conns, c)
				connMu.Unlock()
			}
			return c, nil
		},
		ReadTimeout:  30 * time.Millisecond,
		PromoteAfter: promoteAfter,
	})
	// The pair helper built its own listener the follower never dials;
	// serve the real one too.
	go p.leader.Serve(ln)
	defer ln.Close()

	for seg := 0; seg < 2; seg++ {
		if err := p.leaderJs[seg].Append(shardRecs(seg, 2, "pre")...); err != nil {
			t.Fatal(err)
		}
	}
	p.settleAll(t)

	// Cut segment 1: kill its live conns and refuse redials.
	cut.Store(true)
	connMu.Lock()
	for _, c := range seg1Conns {
		c.Close()
	}
	connMu.Unlock()

	// Segment 0 keeps flowing while 1 is dark.
	var want0 int
	deadline := time.Now().Add(8 * promoteAfter)
	for time.Now().Before(deadline) {
		if err := p.leaderJs[0].Append(shardRecs(0, 1, "during")...); err != nil {
			t.Fatal(err)
		}
		want0++
		time.Sleep(promoteAfter / 8)
	}
	select {
	case err := <-p.runErr:
		t.Fatalf("Run returned %v while segment 0 still heard the leader", err)
	default:
	}
	p.settleSegment(t, 0)
	if got := len(p.states[0].snapshot()); got != 2+want0 {
		t.Fatalf("healthy segment applied %d records during the cut, want %d", got, 2+want0)
	}
	if s := p.follower.SegmentStaleness(1); s < promoteAfter {
		t.Fatalf("cut segment staleness = %v, want at least %v", s, promoteAfter)
	}
	if s := p.follower.SegmentStaleness(0); s > promoteAfter {
		t.Fatalf("healthy segment staleness = %v, want under %v", s, promoteAfter)
	}
	if err := p.follower.SegmentFaultErr(1); err != nil {
		t.Fatalf("transport cut reported as local fault: %v", err)
	}

	// Heal the transport: segment 1 resyncs exactly once-applied.
	if err := p.leaderJs[1].Append(shardRecs(1, 2, "post")...); err != nil {
		t.Fatal(err)
	}
	cut.Store(false)
	p.settleAll(t)
	got := p.states[1].snapshot()
	if len(got) != 4 {
		t.Fatalf("healed segment 1 has %d records, want 4 (duplicates or losses)", len(got))
	}
}

func TestWatchdogPromotesOnTotalSilenceDespiteSegmentActivity(t *testing.T) {
	// Regression: the watchdog must count only frames heard from the
	// leader. After the leader dies, every segment loop stays locally
	// busy — dial attempts, backoff, reconnect churn — and none of that
	// activity may defer the promotion.
	p := startShardedPair(t, 4, FollowerConfig{
		ReadTimeout:  30 * time.Millisecond,
		PromoteAfter: 100 * time.Millisecond,
	})
	if err := p.leaderJs[2].Append(shardRecs(2, 1, "w")...); err != nil {
		t.Fatal(err)
	}
	p.settleSegment(t, 2)
	applied := p.follower.AppliedSeqSegment(2)
	p.leader.Close() // every stream goes dark; redials fail fast
	select {
	case err := <-p.runErr:
		if !errors.Is(err, ErrPromoted) {
			t.Fatalf("Run returned %v, want ErrPromoted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sharded follower did not self-promote on total leader silence")
	}
	if got := p.follower.AppliedSeqSegment(2); got != applied {
		t.Fatalf("promotion changed segment 2 applied seq %d -> %d", applied, got)
	}
	p.runErr <- nil
}

func TestShardCountMismatchRefusedAtHandshake(t *testing.T) {
	// A 4-segment leader.
	ljs := make([]*journal.Journal, 4)
	for i := range ljs {
		j, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		ljs[i] = j
	}
	ln := newMemListener()
	leader := NewShardedLeader(ljs, LeaderConfig{Heartbeat: 10 * time.Millisecond})
	go leader.Serve(ln)
	defer leader.Close()

	runFollower := func(t *testing.T, build func() (*Follower, func())) error {
		t.Helper()
		f, cleanup := build()
		defer cleanup()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- f.Run(ctx) }()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			cancel()
			<-done
			t.Fatal("refused follower kept running")
			return nil
		}
	}

	t.Run("v2 wrong shard count", func(t *testing.T) {
		err := runFollower(t, func() (*Follower, func()) {
			fjs := make([]*journal.Journal, 2)
			var closers []func()
			for i := range fjs {
				j, _, err := journal.OpenFS(faultfs.NewMemFS(), "follower")
				if err != nil {
					t.Fatal(err)
				}
				closers = append(closers, func() { j.Close() })
				fjs[i] = j
			}
			state := &replicaState{}
			f, err := NewShardedFollower(fjs, FollowerConfig{
				DialSegment:  ln.dial,
				ApplySegment: state.apply,
				ResetSegment: state.reset,
				Backoff:      time.Millisecond,
				ReadTimeout:  200 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			return f, func() {
				for _, c := range closers {
					c()
				}
			}
		})
		if !errors.Is(err, ErrHandshakeRefused) {
			t.Fatalf("Run returned %v, want ErrHandshakeRefused", err)
		}
		if !strings.Contains(err.Error(), "shard count mismatch") {
			t.Fatalf("refusal reason not carried to the follower: %v", err)
		}
	})

	t.Run("v1 against sharded leader", func(t *testing.T) {
		// A cprepl/1 follower's hello is refused with a reason naming
		// cprepl/2, so the old binary stops instead of retrying —
		// against a one-segment leader as against this one.
		lj, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
		if err != nil {
			t.Fatal(err)
		}
		defer lj.Close()
		ln1 := newMemListener()
		leader1 := NewShardedLeader([]*journal.Journal{lj}, LeaderConfig{Heartbeat: 10 * time.Millisecond})
		go leader1.Serve(ln1)
		defer leader1.Close()
		v1Hello, _ := hex.DecodeString("63707265706c2f31000000000000002a") // "cprepl/1" + lastSeq 42
		for _, l := range []*memListener{ln, ln1} {
			conn, err := l.dial(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(conn, frameHello, 0, v1Hello); err != nil {
				t.Fatal(err)
			}
			typ, _, payload, err := readFrame(conn)
			if err != nil || typ != frameRefuse {
				t.Fatalf("answer to a cprepl/1 hello: %c %v, want an E refusal", typ, err)
			}
			if reason := decodeRefusal(payload); !strings.Contains(reason, "cprepl/2") {
				t.Fatalf("refusal reason %q does not name cprepl/2", reason)
			}
			if _, _, _, err := readFrame(conn); err == nil {
				t.Fatal("leader kept the refused session open")
			}
			conn.Close()
		}
	})
}

func TestHandshakeGoldenBytes(t *testing.T) {
	// The hello payload is pinned byte-for-byte: a drift here is a
	// wire-protocol break against every deployed peer.
	if got := hex.EncodeToString(encodeHello(4, 2, 42)); got != "63707265706c2f320000000400000002000000000000002a" {
		t.Fatalf("hello bytes drifted: %s", got)
	}
	h, err := decodeHello(encodeHello(4, 2, 42))
	if err != nil || h.shards != 4 || h.segment != 2 || h.lastSeq != 42 {
		t.Fatalf("hello decoded as %+v, %v", h, err)
	}
	// Internal consistency is enforced at decode.
	if _, err := decodeHello(encodeHello(0, 0, 1)); err == nil {
		t.Fatal("zero-shard hello decoded")
	}
	if _, err := decodeHello(encodeHello(4, 4, 1)); err == nil {
		t.Fatal("out-of-range segment hello decoded")
	}
	if _, err := decodeHello([]byte("cprepl/3--------")); err == nil {
		t.Fatal("unknown magic decoded")
	}
	// The refusal frame carries a bounded UTF-8 reason.
	if got := decodeRefusal([]byte("shard count mismatch")); got != "shard count mismatch" {
		t.Fatalf("refusal reason = %q", got)
	}
	if got := decodeRefusal([]byte(strings.Repeat("x", 4096))); len(got) != 512 {
		t.Fatalf("refusal reason not bounded: %d bytes", len(got))
	}
}

func TestTaggedFrameGoldenBytes(t *testing.T) {
	// One batch frame of segment 2, pinned byte-for-byte: type, length,
	// the 4-byte segment tag, firstSeq, commitSeq, then the journal's
	// own batch bytes.
	var buf bytes.Buffer
	data := []byte("A\t8\t\"alice\"\tdeadbeef\tx\n")
	if err := writeBatchFrame(&buf, 2, 7, 9, data); err != nil {
		t.Fatal(err)
	}
	const want = "420000002b" + "00000002" + "0000000000000007" + "0000000000000009" +
		"4109380922616c6963652209646561646265656609780a"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("tagged batch frame drifted:\n got %s\nwant %s", got, want)
	}
	typ, seg, payload, err := readFrame(&buf)
	if err != nil || typ != frameBatch || seg != 2 {
		t.Fatalf("read back: %c segment %d %v", typ, seg, err)
	}
	if first, commit, got, err := decodeBatch(payload); err != nil || first != 7 || commit != 9 || !bytes.Equal(got, data) {
		t.Fatalf("batch: [%d,%d] %q %v", first, commit, got, err)
	}
	// A tagged frame too short to hold its tag is refused.
	if _, _, _, err := readFrame(bytes.NewReader([]byte{frameAck, 0, 0, 0, 2, 0, 0})); err == nil {
		t.Fatal("frame with a truncated segment tag decoded")
	}
}
