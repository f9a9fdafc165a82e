package contextpref

// Replication throughput benchmark: how fast the leader→follower
// pipeline moves committed records end to end — leader durable append,
// tap, wire framing over an in-memory connection, follower durable
// graft, and ack — with both journals on the in-memory filesystem so
// the number isolates the replication machinery from disk speed.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
	"contextpref/internal/replication"
)

// BenchmarkReplicationShip appends one record per iteration on the
// leader and waits for the follower to durably hold the full stream;
// ns/op is therefore the amortized replicated-append latency and
// 1e9/ns-per-op the records/sec shipping rate.
func BenchmarkReplicationShip(b *testing.B) {
	lj, _, err := journal.OpenFS(faultfs.NewMemFS(), "/leader")
	if err != nil {
		b.Fatal(err)
	}
	defer lj.Close()
	ln := newPipeListener()
	leader := replication.NewShardedLeader([]*journal.Journal{lj}, replication.LeaderConfig{
		Heartbeat:  time.Second,
		SendBuffer: 4096,
	})
	go leader.Serve(ln)
	defer leader.Close()

	fj, _, err := journal.OpenFS(faultfs.NewMemFS(), "/replica")
	if err != nil {
		b.Fatal(err)
	}
	defer fj.Close()
	fol, err := replication.NewShardedFollower([]*journal.Journal{fj}, replication.FollowerConfig{
		DialSegment:  ln.dial,
		ApplySegment: func(int, []journal.Record) error { return nil },
		ResetSegment: func(int, []journal.Record) error { return nil },
		Backoff:      time.Millisecond,
		ReadTimeout:  time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fol.Run(ctx)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lj.Append(journal.Record{
			Op:   journal.OpAdd,
			User: "bench",
			Line: fmt.Sprintf("[accompanying_people = friends] => type = museum : 0.%d", i%9+1),
		}); err != nil {
			b.Fatal(err)
		}
		// Backpressure: never outrun the send buffer, or the bench
		// degenerates into cut-and-resync churn instead of measuring
		// the steady-state pipeline.
		for lj.LastSeq()-fol.AppliedSeqSegment(0) > 2048 {
			time.Sleep(20 * time.Microsecond)
		}
	}
	target := lj.LastSeq()
	for fol.AppliedSeqSegment(0) < target {
		time.Sleep(50 * time.Microsecond)
	}
}
