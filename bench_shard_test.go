package contextpref

// BenchmarkDirectorySharded contrasts directory throughput under a
// contended mixed workload between the single-lock baseline (one
// shard) and a sharded directory: every goroutine resolves against its
// own user's profile through Directory.Lookup (a shard read-lock per
// op), and every eighth operation churns a transient user through
// User + RemoveUser (two shard write-locks). With one shard the churn
// serializes every lookup in the directory; with eight, only the churn
// shard stalls.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"contextpref/internal/dataset"
)

func BenchmarkDirectorySharded(b *testing.B) {
	// Underscored names: benchjson strips a trailing -N (the GOMAXPROCS
	// suffix), which would swallow a "shards-8" spelling.
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards_%d", shards), func(b *testing.B) {
			benchmarkDirectoryMixed(b, shards)
		})
	}
}

func benchmarkDirectoryMixed(b *testing.B, shards int) {
	const numUsers = 64
	env, err := dataset.RealEnvironment()
	if err != nil {
		b.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDirectory(env, rel, WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, numUsers)
	for i := range names {
		names[i] = fmt.Sprintf("bench-u-%03d", i)
		sys, err := d.User(names[i])
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadProfile("[] => type = park : 0.4"); err != nil {
			b.Fatal(err)
		}
	}
	st, err := env.NewState(
		env.Param(0).Hierarchy().DetailedValues()[0],
		env.Param(1).Hierarchy().DetailedValues()[0],
		env.Param(2).Hierarchy().DetailedValues()[0])
	if err != nil {
		b.Fatal(err)
	}

	var gid atomic.Int64
	// Several goroutines per core: the point is lock contention, which
	// a single-goroutine run (GOMAXPROCS=1) would never exhibit.
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := gid.Add(1)
		name := names[int(g-1)%numUsers]
		for i := 0; pb.Next(); i++ {
			if i%8 == 0 {
				churn := fmt.Sprintf("bench-churn-%d-%d", g, i)
				if _, err := d.User(churn); err != nil {
					b.Fatal(err)
				}
				if _, err := d.RemoveUser(churn); err != nil {
					b.Fatal(err)
				}
				continue
			}
			sys, ok := d.Lookup(name)
			if !ok {
				b.Fatalf("user %q vanished", name)
			}
			if _, _, err := sys.Resolve(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDirectoryParkedCycle is the bounded-residency rung: with a
// resident bound of one and two users touched in turn, every op
// rebuilds one user's parked 20-preference profile and parks the other
// — the access → unpark → evict cycle that dominates a directory whose
// users far outnumber its bound.
func BenchmarkDirectoryParkedCycle(b *testing.B) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		b.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDirectory(env, rel, WithMaxResidentUsers(1))
	if err != nil {
		b.Fatal(err)
	}
	var users [2]*SafeSystem
	for i := range users {
		prefs, err := dataset.ProfileSpec{Env: env, NumPrefs: 20, Seed: benchSeed + int64(i),
			Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		if users[i], err = d.User(fmt.Sprintf("bench-parked-%d", i)); err != nil {
			b.Fatal(err)
		}
		if err := users[i].AddPreferences(prefs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if users[i%2].NumPreferences() == 0 {
			b.Fatal("parked profile rebuilt empty")
		}
	}
	b.StopTimer()
	if d.ResidentUsers() != 1 {
		b.Fatalf("ResidentUsers = %d, want 1", d.ResidentUsers())
	}
}
