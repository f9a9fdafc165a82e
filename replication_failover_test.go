package contextpref

// Replicated failover torture: the crash-consistency workload runs
// against a journaled leader that ships every batch to a live follower
// over an in-memory transport, the leader is crashed at every
// filesystem operation index in turn, and the follower is promoted
// after each crash. The promoted state must be the state after some
// whole prefix of batches (never a torn batch, never a reordering) and
// must contain every record the follower acknowledged to the leader —
// the acked watermark is exactly the promotion-safety contract: an ack
// is only sent after the batch is durable in the follower's journal,
// so no acked record can be lost. The promoted node must then accept
// new journaled mutations.

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

// pipeListener hands net.Pipe server ends to a replication leader's
// accept loop; dial returns the matching client ends until Close.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "pipe", Net: "unix"}
}

// dial is a replication.FollowerConfig.DialSegment: every segment's
// stream dials the one listener.
func (l *pipeListener) dial(context.Context, int) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("replication test: leader is down")
	}
}

// followerState is the follower's in-memory side: a bare System fed by
// the replication ApplySegment/ResetSegment callbacks of a one-segment
// stream. Only the follower loop touches
// it until Run returns.
type followerState struct {
	env *Environment
	rel *Relation
	sys *System
}

func newFollowerState(t *testing.T, env *Environment, rel *Relation) *followerState {
	t.Helper()
	sys, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	return &followerState{env: env, rel: rel, sys: sys}
}

func (f *followerState) apply(_ int, recs []journal.Record) error {
	for _, r := range recs {
		if err := applyRecord(f.sys, r); err != nil {
			return err
		}
	}
	return nil
}

func (f *followerState) reset(seg int, recs []journal.Record) error {
	sys, err := NewSystem(f.env, f.rel)
	if err != nil {
		return err
	}
	f.sys = sys
	return f.apply(seg, recs)
}

func TestReplicationFailoverTorture(t *testing.T) {
	env, rel := persistFixture(t)
	const numBatches = 96 // one compaction fires mid-workload (every 64)
	batches := buildCrashWorkload(t, env, numBatches)
	dir := "/store"

	// Golden pass, no faults and no replication: canonical state and
	// journal sequence horizon after every batch prefix.
	counter := faultfs.NewInject(faultfs.NewMemFS())
	golden := make([]string, 0, numBatches+1)
	seqAfter := make([]uint64, 0, numBatches+1)
	{
		sys, err := NewSystem(env, rel)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := journal.OpenFS(counter, dir)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetPersister(NewJournalPersister(j), "")
		export, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		golden = append(golden, canonical(t, export))
		seqAfter = append(seqAfter, j.LastSeq())
		for bi, b := range batches {
			if b.remove != nil {
				if _, err := sys.RemovePreference(*b.remove); err != nil {
					t.Fatalf("golden batch %d: %v", bi, err)
				}
			} else if err := sys.AddPreferences(b.add...); err != nil {
				t.Fatalf("golden batch %d: %v", bi, err)
			}
			if export, err = sys.ExportProfile(); err != nil {
				t.Fatal(err)
			}
			golden = append(golden, canonical(t, export))
			seqAfter = append(seqAfter, j.LastSeq())
			if b.snapshotAfter {
				state, err := sys.SnapshotRecords("")
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Snapshot(state); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	totalOps := counter.Ops()
	t.Logf("failover space: %d batches, %d leader fs ops", numBatches, totalOps)

	for k := 1; k <= totalOps; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			mem := faultfs.NewMemFS()
			inj := faultfs.NewInject(mem)
			inj.CrashAt(k)

			lj, lrecs, err := journal.OpenFS(inj, dir, journal.WithRetry(0, 0))
			if err != nil {
				return // crashed opening the store: nothing ever served
			}
			defer lj.Close()
			lsys, err := NewSystem(env, rel)
			if err != nil {
				t.Fatal(err)
			}
			if err := lsys.Replay(lrecs); err != nil {
				t.Fatal(err)
			}
			lsys.SetPersister(NewJournalPersister(lj), "")

			ln := newPipeListener()
			leader := replication.NewShardedLeader([]*journal.Journal{lj}, replication.LeaderConfig{
				Heartbeat: 2 * time.Millisecond,
			})
			go leader.Serve(ln)

			fmem := faultfs.NewMemFS()
			fj, _, err := journal.OpenFS(fmem, "/replica")
			if err != nil {
				t.Fatal(err)
			}
			defer fj.Close()
			fstate := newFollowerState(t, env, rel)
			fol, err := replication.NewShardedFollower([]*journal.Journal{fj}, replication.FollowerConfig{
				DialSegment:  ln.dial,
				ApplySegment: fstate.apply,
				ResetSegment: fstate.reset,
				Backoff:      time.Millisecond,
				ReadTimeout:  250 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			runErr := make(chan error, 1)
			go func() { runErr <- fol.Run(context.Background()) }()

			// Drive the workload into the crash. The first failed batch
			// ends the run: after the crash every journal write fails.
			acked := 0
			for _, b := range batches {
				var err error
				if b.remove != nil {
					_, err = lsys.RemovePreference(*b.remove)
				} else {
					err = lsys.AddPreferences(b.add...)
				}
				if err != nil {
					break
				}
				acked++
				if b.snapshotAfter {
					state, err := lsys.SnapshotRecords("")
					if err != nil {
						t.Fatal(err)
					}
					_ = lj.Snapshot(state) // compaction may crash; not a mutation
				}
			}
			// Op indices past the replicated workload's own stream (the
			// golden run's shutdown tail) leave the workload complete;
			// promotion is then drilled against an uncrashed leader.
			if !inj.Crashed() && acked < numBatches {
				t.Fatalf("crash at op %d never fired (workload acked %d/%d)", k, acked, numBatches)
			}

			// Leader-wedge failover: tear the stream down, promote.
			leader.Close()
			ackedSeq := leader.AckedSegment(0)
			fol.Promote()
			if err := <-runErr; !errors.Is(err, replication.ErrPromoted) {
				t.Fatalf("follower run ended with %v, want ErrPromoted", err)
			}

			// Promotion safety: the promoted state sits on a whole batch
			// boundary, equals that golden prefix, and holds every record
			// the follower acknowledged.
			applied := fol.AppliedSeqSegment(0)
			if applied < ackedSeq {
				t.Fatalf("follower applied seq %d below its own acked watermark %d", applied, ackedSeq)
			}
			idx := -1
			for i, s := range seqAfter {
				if s == applied {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Fatalf("promoted seq horizon %d is not a batch boundary (acked %d batches)", applied, acked)
			}
			export, err := fstate.sys.ExportProfile()
			if err != nil {
				t.Fatal(err)
			}
			if got := canonical(t, export); got != golden[idx] {
				t.Fatalf("promoted state does not match golden prefix %d (seq %d):\n%s\nwant:\n%s",
					idx, applied, got, golden[idx])
			}

			// The promoted node owns its journal: mutations are accepted
			// and journaled again.
			fstate.sys.SetPersister(NewJournalPersister(fj), "")
			if err := fstate.sys.AddPreferences(); err != nil {
				t.Fatalf("promoted node rejects mutations: %v", err)
			}
		})
	}
}

// TestReplicationStalenessSignal pins the SegmentStaleness contract the
// HTTP layer's stale gate is built on: near zero while the stream is
// heartbeating, and growing without bound once the leader is gone.
func TestReplicationStalenessSignal(t *testing.T) {
	env, rel := persistFixture(t)
	mem := faultfs.NewMemFS()
	lj, _, err := journal.OpenFS(mem, "/store")
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close()
	lsys, err := NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	lsys.SetPersister(NewJournalPersister(lj), "")

	ln := newPipeListener()
	leader := replication.NewShardedLeader([]*journal.Journal{lj}, replication.LeaderConfig{Heartbeat: 2 * time.Millisecond})
	go leader.Serve(ln)

	fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "/replica")
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	fstate := newFollowerState(t, env, rel)
	fol, err := replication.NewShardedFollower([]*journal.Journal{fj}, replication.FollowerConfig{
		DialSegment:  ln.dial,
		ApplySegment: fstate.apply,
		ResetSegment: fstate.reset,
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

	p, err := ParsePreference("[accompanying_people = friends] => type = brewery : 0.9")
	if err != nil {
		t.Fatal(err)
	}
	if err := lsys.AddPreferences(p); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fol.AppliedSeqSegment(0) < lj.LastSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: applied %d, leader %d", fol.AppliedSeqSegment(0), lj.LastSeq())
		}
		time.Sleep(time.Millisecond)
	}
	// Caught up and heartbeating: staleness stays inside a generous
	// bound across several heartbeat intervals.
	for i := 0; i < 5; i++ {
		if s := fol.SegmentStaleness(0); s > time.Second {
			t.Fatalf("caught-up follower reports staleness %v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Leader gone: staleness grows at wall-clock rate, so the serving
	// layer's -max-staleness gate will trip no matter the bound.
	leader.Close()
	time.Sleep(30 * time.Millisecond)
	s1 := fol.SegmentStaleness(0)
	if s1 < 20*time.Millisecond {
		t.Fatalf("staleness %v after 30ms of leader silence", s1)
	}
	time.Sleep(30 * time.Millisecond)
	if s2 := fol.SegmentStaleness(0); s2 <= s1 {
		t.Fatalf("staleness did not grow while disconnected: %v then %v", s1, s2)
	}
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower run ended with %v, want context.Canceled", err)
	}
}
