package contextpref

// Sharded replicated failover torture: a four-shard journaled leader
// directory ships each shard's journal segment on its own replication
// stream to a live sharded follower, the leader process is crashed at
// every filesystem operation index in turn (one shared fault injector
// spans all four segment journals, exactly like one process crashing),
// and the follower is promoted after each crash. Promotion safety is
// per segment — each shard's promoted state must sit on a whole batch
// boundary of ITS OWN stream, equal that shard's golden prefix, and
// hold every record that shard's stream acknowledged — but never
// cross-shard: the segments are independent fault domains and may land
// on different prefixes. A companion subtest cuts one segment's
// transport mid-frame, repeatedly, while the other segments keep
// flowing: no head-of-line blocking, and the cut shard resyncs
// idempotently once the transport heals.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
	"contextpref/internal/replication"
)

const tortureShards = 4

// tortureUsers picks one user per shard, routed by the pinned hash.
func tortureUsers(t *testing.T) [tortureShards]string {
	t.Helper()
	var users [tortureShards]string
	found := 0
	for i := 0; found < tortureShards; i++ {
		name := fmt.Sprintf("torture-u-%d", i)
		s := UserShard(name, tortureShards)
		if users[s] == "" {
			users[s] = name
			found++
		}
	}
	return users
}

// budgetConn cuts the stream after a byte budget is read — a transport
// fault landing mid-header or mid-record. A negative budget never cuts.
type budgetConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
	onCut  func()
}

func (c *budgetConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	budget := c.budget
	c.mu.Unlock()
	if budget < 0 {
		return c.Conn.Read(p)
	}
	if budget == 0 {
		c.Conn.Close()
		if c.onCut != nil {
			c.onCut()
		}
		return 0, errors.New("injected mid-frame transport cut")
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

// shardedGolden is the canonical per-shard truth after every journal
// batch prefix: states[s][i] and seqAfter[s][i] describe shard s after
// its first i batches, the user's creation being batch 1.
type shardedGolden struct {
	states   [tortureShards][]string
	seqAfter [tortureShards][]uint64
}

// driveShardedWorkload applies each batch to every shard's user in a
// fixed interleave (batch 0 on shard 0..3, then batch 1, ...), with one
// forced per-shard compaction after snapAfter batches. It stops at the
// first failed mutation (after a crash every journal write fails) and
// returns how many batches were acknowledged in total. record, when
// non-nil, is called after every acknowledged journal batch with the
// shard it landed on: each user's creation, then each workload batch.
// Compaction failures are tolerated: a snapshot is an optimization, not
// a mutation.
func driveShardedWorkload(t *testing.T, dir *Directory, js []*journal.Journal,
	users [tortureShards]string, batches []crashBatch, snapAfter int,
	record func(shard int)) (acked int) {
	t.Helper()
	for bi, b := range batches {
		for s := 0; s < tortureShards; s++ {
			u, err := dir.User(users[s])
			if err != nil {
				return acked
			}
			if bi == 0 && record != nil {
				// This first access created the user, and the creation
				// is a journal batch of its own: a whole-batch prefix a
				// follower can be promoted at before the first add.
				record(s)
			}
			if b.remove != nil {
				_, err = u.RemovePreference(*b.remove)
			} else {
				err = u.AddPreferences(b.add...)
			}
			if err != nil {
				return acked
			}
			acked++
			if record != nil {
				record(s)
			}
		}
		if bi+1 == snapAfter {
			for s := 0; s < tortureShards; s++ {
				state, err := dir.SnapshotShardRecords(s)
				if err != nil {
					t.Fatal(err)
				}
				_ = js[s].Snapshot(state)
			}
		}
	}
	return acked
}

// shardExport canonicalizes one shard's user profile on a directory; a
// user that never materialized is the empty profile.
func shardExport(t *testing.T, dir *Directory, user string) string {
	t.Helper()
	u, ok := dir.Lookup(user)
	if !ok {
		return ""
	}
	export, err := u.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, export)
}

func TestShardedReplicationFailoverTorture(t *testing.T) {
	env, rel := persistFixture(t)
	users := tortureUsers(t)
	const numBatches = 12 // per shard; 4x interleaved = 48 total
	const snapAfter = 6   // forced per-shard compaction mid-workload
	batches := buildCrashWorkload(t, env, numBatches)

	newShardedDir := func(t *testing.T) *Directory {
		t.Helper()
		d, err := NewDirectory(env, rel, WithShards(tortureShards))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	openSegments := func(t *testing.T, fsys faultfs.FS, retry bool) ([]*journal.Journal, bool) {
		t.Helper()
		js := make([]*journal.Journal, tortureShards)
		for s := 0; s < tortureShards; s++ {
			opts := []journal.Option(nil)
			if retry {
				opts = append(opts, journal.WithRetry(0, 0))
			}
			j, _, err := journal.OpenFS(fsys, journal.ShardDir(s), opts...)
			if err != nil {
				for _, prev := range js[:s] {
					prev.Close()
				}
				return nil, false
			}
			js[s] = j
		}
		return js, true
	}

	// Golden pass, no faults and no replication: the per-shard canonical
	// state and sequence horizon after every batch prefix, plus the total
	// fs-op count that bounds the crash space. One injector spans all
	// four segments — their interleaved op stream is the "process".
	var golden shardedGolden
	counter := faultfs.NewInject(faultfs.NewMemFS())
	{
		dir := newShardedDir(t)
		js, ok := openSegments(t, counter, false)
		if !ok {
			t.Fatal("golden pass failed to open segments")
		}
		for s := 0; s < tortureShards; s++ {
			dir.SetShardPersister(s, NewJournalPersister(js[s]))
			golden.states[s] = append(golden.states[s], shardExport(t, dir, users[s]))
			golden.seqAfter[s] = append(golden.seqAfter[s], js[s].LastSeq())
		}
		acked := driveShardedWorkload(t, dir, js, users, batches, snapAfter, func(s int) {
			golden.states[s] = append(golden.states[s], shardExport(t, dir, users[s]))
			golden.seqAfter[s] = append(golden.seqAfter[s], js[s].LastSeq())
		})
		if acked != numBatches*tortureShards {
			t.Fatalf("golden pass acked %d batches, want %d", acked, numBatches*tortureShards)
		}
		for _, j := range js {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	totalOps := counter.Ops()
	t.Logf("failover space: %d shards, %d batches, %d leader fs ops",
		tortureShards, numBatches*tortureShards, totalOps)

	for k := 1; k <= totalOps; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			inj := faultfs.NewInject(faultfs.NewMemFS())
			inj.CrashAt(k)

			ljs, ok := openSegments(t, inj, true)
			if !ok {
				return // crashed opening the store: nothing ever served
			}
			defer func() {
				for _, j := range ljs {
					j.Close()
				}
			}()
			ldir := newShardedDir(t)
			for s := 0; s < tortureShards; s++ {
				ldir.SetShardPersister(s, NewJournalPersister(ljs[s]))
			}

			ln := newPipeListener()
			leader := replication.NewShardedLeader(ljs, replication.LeaderConfig{
				Heartbeat: 2 * time.Millisecond,
			})
			go leader.Serve(ln)

			fjs := make([]*journal.Journal, tortureShards)
			for s := range fjs {
				fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "replica")
				if err != nil {
					t.Fatal(err)
				}
				defer fj.Close()
				fjs[s] = fj
			}
			fdir := newShardedDir(t)
			fol, err := replication.NewShardedFollower(fjs, replication.FollowerConfig{
				DialSegment:  ln.dial,
				ApplySegment: fdir.ReplayShard,
				ResetSegment: fdir.ResetShardReplicated,
				Backoff:      time.Millisecond,
				ReadTimeout:  250 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			runErr := make(chan error, 1)
			go func() { runErr <- fol.Run(context.Background()) }()

			acked := driveShardedWorkload(t, ldir, ljs, users, batches, snapAfter, nil)
			// Op indices past the replicated workload's own stream (the
			// golden run's shutdown tail) leave the workload complete;
			// promotion is then drilled against an uncrashed leader.
			if !inj.Crashed() && acked < numBatches*tortureShards {
				t.Fatalf("crash at op %d never fired (workload acked %d/%d)",
					k, acked, numBatches*tortureShards)
			}

			// Leader-wedge failover: tear every stream down, promote.
			leader.Close()
			var ackedSeq [tortureShards]uint64
			for s := 0; s < tortureShards; s++ {
				ackedSeq[s] = leader.AckedSegment(s)
			}
			fol.Promote()
			if err := <-runErr; !errors.Is(err, replication.ErrPromoted) {
				t.Fatalf("follower run ended with %v, want ErrPromoted", err)
			}

			// Per-segment promotion safety: each shard independently sits
			// on a whole batch boundary of its own stream, matches that
			// golden prefix, and covers its own acked watermark. The
			// shards need not agree on a prefix — that is the documented
			// non-guarantee.
			for s := 0; s < tortureShards; s++ {
				applied := fol.AppliedSeqSegment(s)
				if applied < ackedSeq[s] {
					t.Fatalf("shard %d applied seq %d below its acked watermark %d",
						s, applied, ackedSeq[s])
				}
				idx := -1
				for i, seq := range golden.seqAfter[s] {
					if seq == applied {
						idx = i
						break
					}
				}
				if idx < 0 {
					t.Fatalf("shard %d promoted seq horizon %d is not a batch boundary", s, applied)
				}
				if got := shardExport(t, fdir, users[s]); got != golden.states[s][idx] {
					t.Fatalf("shard %d promoted state does not match golden prefix %d (seq %d):\n%s\nwant:\n%s",
						s, idx, applied, got, golden.states[s][idx])
				}
			}

			// The promoted node owns its segments: a mutation on a fresh
			// user is accepted and journaled again.
			for s := 0; s < tortureShards; s++ {
				fdir.SetShardPersister(s, NewJournalPersister(fjs[s]))
			}
			p, err := ParsePreference("[accompanying_people = friends] => type = brewery : 0.9")
			if err != nil {
				t.Fatal(err)
			}
			u, err := fdir.User("promoted-fresh-user")
			if err != nil {
				t.Fatal(err)
			}
			if err := u.AddPreferences(p); err != nil {
				t.Fatalf("promoted node rejects mutations: %v", err)
			}
		})
	}

	// One segment's transport is cut mid-frame, over and over, while the
	// other segments keep flowing: the cut degrades only its own shard
	// (no head-of-line blocking — the healthy shards converge while the
	// cut one is still flapping) and the cut shard resyncs idempotently
	// to the same golden state once its budgets run out.
	t.Run("segment-cut", func(t *testing.T) {
		const cutSeg = 2
		ljs, ok := openSegments(t, faultfs.NewMemFS(), false)
		if !ok {
			t.Fatal("failed to open leader segments")
		}
		defer func() {
			for _, j := range ljs {
				j.Close()
			}
		}()
		ldir := newShardedDir(t)
		for s := 0; s < tortureShards; s++ {
			ldir.SetShardPersister(s, NewJournalPersister(ljs[s]))
		}
		ln := newPipeListener()
		leader := replication.NewShardedLeader(ljs, replication.LeaderConfig{
			Heartbeat: 2 * time.Millisecond,
		})
		go leader.Serve(ln)
		defer leader.Close()

		fjs := make([]*journal.Journal, tortureShards)
		for s := range fjs {
			fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "replica")
			if err != nil {
				t.Fatal(err)
			}
			defer fj.Close()
			fjs[s] = fj
		}
		fdir := newShardedDir(t)
		// Budgets cut segment 2's sessions mid-header and mid-record a
		// few times before letting a session live.
		budgets := []int{3, 9, 31, 77, 165, 320}
		var mu sync.Mutex
		next, cuts := 0, 0
		fol, err := replication.NewShardedFollower(fjs, replication.FollowerConfig{
			DialSegment: func(ctx context.Context, seg int) (net.Conn, error) {
				c, err := ln.dial(ctx, seg)
				if err != nil {
					return nil, err
				}
				if seg != cutSeg {
					return c, nil
				}
				mu.Lock()
				b := -1
				if next < len(budgets) {
					b = budgets[next]
					next++
				}
				mu.Unlock()
				return &budgetConn{Conn: c, budget: b, onCut: func() {
					mu.Lock()
					cuts++
					mu.Unlock()
				}}, nil
			},
			ApplySegment: fdir.ReplayShard,
			ResetSegment: fdir.ResetShardReplicated,
			Backoff:      time.Millisecond,
			ReadTimeout:  250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		runErr := make(chan error, 1)
		go func() { runErr <- fol.Run(ctx) }()
		defer func() { cancel(); <-runErr }()

		acked := driveShardedWorkload(t, ldir, ljs, users, batches, snapAfter, nil)
		if acked != numBatches*tortureShards {
			t.Fatalf("workload acked %d batches, want %d", acked, numBatches*tortureShards)
		}
		// The healthy shards converge without waiting on the cut one.
		deadline := time.Now().Add(10 * time.Second)
		for s := 0; s < tortureShards; s++ {
			if s == cutSeg {
				continue
			}
			for fol.AppliedSeqSegment(s) != ljs[s].LastSeq() {
				if time.Now().After(deadline) {
					t.Fatalf("healthy shard %d never converged: applied %d, leader %d",
						s, fol.AppliedSeqSegment(s), ljs[s].LastSeq())
				}
				time.Sleep(time.Millisecond)
			}
		}
		// The cut shard converges too once its budgets run out, applying
		// exactly once despite the replayed frames.
		for fol.AppliedSeqSegment(cutSeg) != ljs[cutSeg].LastSeq() {
			if time.Now().After(deadline) {
				t.Fatalf("cut shard never resynced: applied %d, leader %d",
					fol.AppliedSeqSegment(cutSeg), ljs[cutSeg].LastSeq())
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		sawCuts := cuts
		mu.Unlock()
		if sawCuts == 0 {
			t.Fatal("no mid-frame cut was exercised")
		}
		for s := 0; s < tortureShards; s++ {
			want := golden.states[s][len(golden.states[s])-1]
			if got := shardExport(t, fdir, users[s]); got != want {
				t.Fatalf("shard %d state after cuts does not match golden:\n%s\nwant:\n%s", s, got, want)
			}
		}
	})
}
