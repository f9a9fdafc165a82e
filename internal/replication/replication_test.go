package replication

// Unit and chaos coverage for the replication pair over an in-memory
// transport: steady-state shipping, snapshot bootstrap, reconnect
// idempotency under mid-frame disconnects, torn follower tails, lagged
// sessions, and promotion on operator signal and leader silence.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
)

// memListener is an in-memory net.Listener over net.Pipe: dial hands
// one end to Accept. Pipe conns support deadlines, which the follower
// relies on.
type memListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func (l *memListener) Addr() net.Addr { return memAddr{} }

// dial is a FollowerConfig.DialSegment: every segment's stream dials
// the one listener, as production followers share one leader address.
func (l *memListener) dial(ctx context.Context, _ int) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

// flakyConn injects a mid-stream disconnect: after budget bytes have
// been read, every operation fails and the underlying conn closes —
// the follower sees a truncated frame, exactly like a leader crash
// mid-record.
type flakyConn struct {
	net.Conn
	mu     sync.Mutex
	budget int // bytes readable before the cut; <0 = unlimited
}

var errInjectedCut = errors.New("injected mid-stream disconnect")

func (c *flakyConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	budget := c.budget
	c.mu.Unlock()
	if budget < 0 {
		return c.Conn.Read(p)
	}
	if budget == 0 {
		c.Conn.Close()
		return 0, errInjectedCut
	}
	if len(p) > budget {
		p = p[:budget]
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.budget -= n
	c.mu.Unlock()
	return n, err
}

// replicaState is a test in-memory state fed by ApplySegment and
// ResetSegment.
type replicaState struct {
	mu   sync.Mutex
	recs []journal.Record
}

func (s *replicaState) apply(_ int, recs []journal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, recs...)
	return nil
}

func (s *replicaState) reset(_ int, recs []journal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append([]journal.Record(nil), recs...)
	return nil
}

func (s *replicaState) snapshot() []journal.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]journal.Record(nil), s.recs...)
}

func testRecs(n int, tag string) []journal.Record {
	recs := make([]journal.Record, n)
	for i := range recs {
		recs[i] = journal.Record{Op: journal.OpAdd, User: "alice", Line: fmt.Sprintf("%s-%d", tag, i)}
	}
	return recs
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

type replPair struct {
	leaderJ, followerJ *journal.Journal
	leader             *Leader
	follower           *Follower
	state              *replicaState
	ln                 *memListener
	runErr             chan error
	cancel             context.CancelFunc
}

// startPair wires a one-segment leader and a running follower over the
// in-memory transport. wrap, when non-nil, intercepts each dialed conn.
func startPair(t *testing.T, fcfg FollowerConfig, wrap func(net.Conn) net.Conn) *replPair {
	t.Helper()
	lj, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
	if err != nil {
		t.Fatal(err)
	}
	fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "follower")
	if err != nil {
		t.Fatal(err)
	}
	ln := newMemListener()
	leader := NewShardedLeader([]*journal.Journal{lj}, LeaderConfig{Heartbeat: 10 * time.Millisecond})
	go leader.Serve(ln)

	state := &replicaState{}
	fcfg.DialSegment = func(ctx context.Context, seg int) (net.Conn, error) {
		c, err := ln.dial(ctx, seg)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			c = wrap(c)
		}
		return c, nil
	}
	fcfg.ApplySegment = state.apply
	fcfg.ResetSegment = state.reset
	if fcfg.Backoff == 0 {
		fcfg.Backoff = time.Millisecond
	}
	if fcfg.ReadTimeout == 0 {
		fcfg.ReadTimeout = 200 * time.Millisecond
	}
	follower, err := NewShardedFollower([]*journal.Journal{fj}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- follower.Run(ctx) }()
	p := &replPair{lj, fj, leader, follower, state, ln, runErr, cancel}
	t.Cleanup(func() {
		cancel()
		select {
		case <-p.runErr:
		case <-time.After(2 * time.Second):
			t.Error("follower.Run did not return after cancel")
		}
		leader.Close()
		lj.Close()
		fj.Close()
	})
	return p
}

// settle waits until the follower has durably applied everything the
// leader committed and the leader has seen the matching ack.
func (p *replPair) settle(t *testing.T) {
	t.Helper()
	want := p.leaderJ.LastSeq()
	waitFor(t, 5*time.Second, fmt.Sprintf("follower to reach seq %d", want), func() bool {
		return p.follower.AppliedSeqSegment(0) == want
	})
	waitFor(t, 5*time.Second, "leader to see the ack", func() bool {
		return p.leader.AckedSegment(0) == want
	})
}

func TestShipSteadyState(t *testing.T) {
	p := startPair(t, FollowerConfig{}, nil)
	var want []journal.Record
	for i := 0; i < 5; i++ {
		recs := testRecs(3, fmt.Sprintf("b%d", i))
		if err := p.leaderJ.Append(recs...); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	p.settle(t)
	got := p.state.snapshot()
	if len(got) != len(want) {
		t.Fatalf("follower state has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// Fresh heartbeats keep staleness bounded.
	waitFor(t, time.Second, "staleness to collapse", func() bool {
		return p.follower.SegmentStaleness(0) < 150*time.Millisecond
	})
}

func TestSnapshotBootstrapColdFollower(t *testing.T) {
	lj, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close()
	// History the cold follower never saw, compacted away.
	pre := testRecs(6, "pre")
	if err := lj.Append(pre...); err != nil {
		t.Fatal(err)
	}
	if err := lj.Snapshot(pre); err != nil {
		t.Fatal(err)
	}
	post := testRecs(2, "post")
	if err := lj.Append(post...); err != nil {
		t.Fatal(err)
	}

	ln := newMemListener()
	leader := NewShardedLeader([]*journal.Journal{lj}, LeaderConfig{Heartbeat: 10 * time.Millisecond})
	go leader.Serve(ln)
	defer leader.Close()

	fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "follower")
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	state := &replicaState{}
	var resets int
	f, err := NewShardedFollower([]*journal.Journal{fj}, FollowerConfig{
		DialSegment:  ln.dial,
		ApplySegment: state.apply,
		ResetSegment: func(seg int, recs []journal.Record) error {
			resets++
			return state.reset(seg, recs)
		},
		Backoff:     time.Millisecond,
		ReadTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, 5*time.Second, "bootstrap to converge", func() bool {
		return f.AppliedSeqSegment(0) == lj.LastSeq()
	})
	if resets != 1 {
		t.Fatalf("Reset called %d times, want 1 (snapshot bootstrap)", resets)
	}
	got := state.snapshot()
	want := append(append([]journal.Record(nil), pre...), post...)
	if len(got) != len(want) {
		t.Fatalf("bootstrapped state has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// The follower's own journal recovers to the same state.
	if fj.LastSeq() != lj.LastSeq() {
		t.Fatalf("follower journal at seq %d, leader %d", fj.LastSeq(), lj.LastSeq())
	}
}

func TestReconnectAfterMidFrameCutsIsIdempotent(t *testing.T) {
	// Every session is cut after a deterministic byte budget —
	// truncating frames mid-header and mid-record — until the budgets
	// run out and a clean session finishes the job. The applied state
	// must come out exactly once, in order.
	budgets := []int{3, 9, 30, 75, 160, 310}
	var mu sync.Mutex
	next := 0
	wrap := func(c net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		b := -1
		if next < len(budgets) {
			b = budgets[next]
			next++
		}
		return &flakyConn{Conn: c, budget: b}
	}
	p := startPair(t, FollowerConfig{Rand: rand.New(rand.NewSource(11))}, wrap)
	var want []journal.Record
	for i := 0; i < 8; i++ {
		recs := testRecs(2, fmt.Sprintf("c%d", i))
		if err := p.leaderJ.Append(recs...); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	p.settle(t)
	mu.Lock()
	cuts := next
	mu.Unlock()
	if cuts != len(budgets) {
		t.Fatalf("only %d of %d flaky sessions were exercised", cuts, len(budgets))
	}
	got := p.state.snapshot()
	if len(got) != len(want) {
		t.Fatalf("after %d cuts: %d records applied, want %d (duplicates or losses)", cuts, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFollowerTornTailResyncs(t *testing.T) {
	// A follower that crashed mid-append recovers with a truncated
	// tail and a stale hello; the leader re-ships from there.
	lj, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close()
	var shipped []journal.Batch
	lj.OnAppend(func(first, commit uint64, data []byte) {
		shipped = append(shipped, journal.Batch{FirstSeq: first, CommitSeq: commit, Data: data})
	})
	all := testRecs(6, "t")
	for i := 0; i < 3; i++ {
		if err := lj.Append(all[2*i : 2*i+2]...); err != nil {
			t.Fatal(err)
		}
	}

	// Replicate two batches, then crash the follower's disk mid-way
	// through a direct append of the third — a torn tail.
	ffs := faultfs.NewMemFS()
	inj := faultfs.NewInject(ffs)
	fj, _, err := journal.OpenFS(inj, "follower")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range shipped[:2] {
		if _, _, err := fj.AppendReplicated(b.Data); err != nil {
			t.Fatal(err)
		}
	}
	inj.CrashAt(1)
	if _, _, err := fj.AppendReplicated(shipped[2].Data); err == nil {
		t.Fatal("append through a crashing disk succeeded")
	}
	fj.Close()
	inj.Lift()

	// Reopen: recovery truncates the torn batch; the journal is two
	// batches deep again.
	fj2, recovered, err := journal.OpenFS(inj, "follower")
	if err != nil {
		t.Fatal(err)
	}
	defer fj2.Close()
	if len(recovered) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", len(recovered))
	}

	// Tail the leader from the recovered horizon: exactly the missing
	// batch ships, and the follower converges.
	ln := newMemListener()
	leader := NewShardedLeader([]*journal.Journal{lj}, LeaderConfig{Heartbeat: 10 * time.Millisecond})
	go leader.Serve(ln)
	defer leader.Close()
	state := &replicaState{}
	state.reset(0, recovered)
	f, err := NewShardedFollower([]*journal.Journal{fj2}, FollowerConfig{
		DialSegment: ln.dial, ApplySegment: state.apply, ResetSegment: state.reset,
		Backoff: time.Millisecond, ReadTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitFor(t, 5*time.Second, "torn follower to resync", func() bool {
		return f.AppliedSeqSegment(0) == lj.LastSeq()
	})
	got := state.snapshot()
	if len(got) != len(all) {
		t.Fatalf("resynced state has %d records, want %d", len(got), len(all))
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], all[i])
		}
	}
}

func TestManualPromote(t *testing.T) {
	p := startPair(t, FollowerConfig{}, nil)
	if err := p.leaderJ.Append(testRecs(2, "m")...); err != nil {
		t.Fatal(err)
	}
	p.settle(t)
	p.follower.Promote()
	select {
	case err := <-p.runErr:
		if !errors.Is(err, ErrPromoted) {
			t.Fatalf("Run returned %v, want ErrPromoted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Promote")
	}
	p.runErr <- nil // keep Cleanup's drain happy
}

func TestPromoteOnLeaderSilence(t *testing.T) {
	// The leader stops heartbeating (wedged, not crashed: the conn
	// stays open); the watchdog promotes after the silence bound.
	p := startPair(t, FollowerConfig{
		ReadTimeout:  30 * time.Millisecond,
		PromoteAfter: 100 * time.Millisecond,
	}, nil)
	if err := p.leaderJ.Append(testRecs(1, "w")...); err != nil {
		t.Fatal(err)
	}
	p.settle(t)
	applied := p.follower.AppliedSeqSegment(0)
	// Wedge: close the leader so nothing more is sent, ever.
	p.leader.Close()
	select {
	case err := <-p.runErr:
		if !errors.Is(err, ErrPromoted) {
			t.Fatalf("Run returned %v, want ErrPromoted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not self-promote on leader silence")
	}
	// Promotion preserved the acked prefix.
	if got := p.follower.AppliedSeqSegment(0); got != applied {
		t.Fatalf("promotion changed applied seq %d -> %d", applied, got)
	}
	p.runErr <- nil
}

func TestLaggedFollowerIsCutAndResyncs(t *testing.T) {
	// A follower that reads slower than the leader appends overflows
	// the tiny send buffer, is disconnected, and must still converge
	// by resyncing from disk on reconnect.
	lj, _, err := journal.OpenFS(faultfs.NewMemFS(), "leader")
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close()
	ln := newMemListener()
	leader := NewShardedLeader([]*journal.Journal{lj}, LeaderConfig{Heartbeat: 5 * time.Millisecond, SendBuffer: 1})
	go leader.Serve(ln)
	defer leader.Close()

	fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "follower")
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	state := &replicaState{}
	var mu sync.Mutex
	throttle := true
	f, err := NewShardedFollower([]*journal.Journal{fj}, FollowerConfig{
		DialSegment: ln.dial,
		ApplySegment: func(seg int, recs []journal.Record) error {
			mu.Lock()
			slow := throttle
			mu.Unlock()
			if slow {
				time.Sleep(20 * time.Millisecond)
			}
			return state.apply(seg, recs)
		},
		ResetSegment:   state.reset,
		Backoff:        time.Millisecond,
		ReadTimeout:    300 * time.Millisecond,
		SegmentMetrics: []*Metrics{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() { cancel(); <-done }()

	var want []journal.Record
	for i := 0; i < 30; i++ {
		recs := testRecs(1, fmt.Sprintf("l%d", i))
		if err := lj.Append(recs...); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	mu.Lock()
	throttle = false
	mu.Unlock()
	waitFor(t, 10*time.Second, "lagged follower to converge", func() bool {
		return f.AppliedSeqSegment(0) == lj.LastSeq()
	})
	got := state.snapshot()
	if len(got) != len(want) {
		t.Fatalf("converged state has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	go func() {
		writeFrame(c, frameHello, 0, encodeHello(4, 2, 42))
		writeBatchFrame(c, 2, 7, 9, []byte("lines\n"))
		writeSnapshotFrame(c, 2, 9, []byte("snap\n"))
		writeFrame(c, frameHeartbeat, 2, encodeSeq(11))
		writeFrame(c, frameAck, 2, encodeSeq(12))
	}()
	typ, _, p, err := readFrame(s)
	if err != nil || typ != frameHello {
		t.Fatalf("frame 1: %c %v", typ, err)
	}
	if h, err := decodeHello(p); err != nil || h.shards != 4 || h.segment != 2 || h.lastSeq != 42 {
		t.Fatalf("hello: %+v %v", h, err)
	}
	typ, seg, p, err := readFrame(s)
	if err != nil || typ != frameBatch || seg != 2 {
		t.Fatalf("frame 2: %c segment %d %v", typ, seg, err)
	}
	first, commit, data, err := decodeBatch(p)
	if err != nil || first != 7 || commit != 9 || string(data) != "lines\n" {
		t.Fatalf("batch: [%d,%d] %q %v", first, commit, data, err)
	}
	typ, seg, p, err = readFrame(s)
	if err != nil || typ != frameSnapshot || seg != 2 {
		t.Fatalf("frame 3: %c segment %d %v", typ, seg, err)
	}
	if seq, data, err := decodeSnapshot(p); err != nil || seq != 9 || string(data) != "snap\n" {
		t.Fatalf("snapshot: %d %q %v", seq, data, err)
	}
	for want := uint64(11); want <= 12; want++ {
		_, seg, p, err = readFrame(s)
		if err != nil || seg != 2 {
			t.Fatalf("seq frame: segment %d %v", seg, err)
		}
		if seq, err := decodeSeq(p); err != nil || seq != want {
			t.Fatalf("seq frame: %d %v, want %d", seq, err, want)
		}
	}
}
