package contextpref

// The profile-load rungs: parsing one preference line, loading a whole
// 522-preference upload into a fresh system (what every POST
// /preferences of a new user costs), and replaying a parked-users
// store at startup. TestLoadAllocBudgets pins the allocation counts the
// first two reach, so a regression on the load path fails tier-1
// rather than waiting for the next benchmark run.

import (
	"fmt"
	"strings"
	"testing"

	"contextpref/internal/dataset"
	"contextpref/internal/journal"
)

// loadTextCount is how many distinct upload bodies the load benchmarks
// rotate through, so no single profile's shape dominates.
const loadTextCount = 8

// loadFixture renders the real-profile-shaped upload bodies of users
// seeded benchSeed..benchSeed+7 (522 preferences each, zipf a = 1, 20%
// upper-level values), one preference per line, over a 300-POI
// relation.
func loadFixture(tb testing.TB) (*Environment, *Relation, []string) {
	tb.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := dataset.POIs(env, 300, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	texts := make([]string, loadTextCount)
	for i := range texts {
		prefs, err := dataset.ProfileSpec{Env: env, NumPrefs: dataset.RealPrefCount, Seed: benchSeed + int64(i),
			Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
		if err != nil {
			tb.Fatal(err)
		}
		var b strings.Builder
		for _, p := range prefs {
			b.WriteString(FormatPreference(p))
			b.WriteByte('\n')
		}
		texts[i] = b.String()
	}
	return env, rel, texts
}

// loadLines splits the fixture's texts into their preference lines.
func loadLines(texts []string) []string {
	var lines []string
	for _, text := range texts {
		lines = append(lines, strings.Split(strings.TrimSuffix(text, "\n"), "\n")...)
	}
	return lines
}

// BenchmarkLoadProfile prices one upload of a new user: a fresh system
// with the serving configuration's 64-entry query cache, then
// LoadProfile of a 522-preference text.
func BenchmarkLoadProfile(b *testing.B) {
	env, rel, texts := loadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(env, rel, WithQueryCache(64))
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.LoadProfile(texts[i%loadTextCount]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePreference prices parsing one preference line, the
// step every upload line, replayed record and unparked record pays.
func BenchmarkParsePreference(b *testing.B) {
	_, _, texts := loadFixture(b)
	lines := loadLines(texts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePreference(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectoryReplay prices recovering a parked-users store:
// ReplayShard of 5120 users × 20 preferences over 4 shards into a
// directory with a resident bound of 128, the shape of cpbench's
// parked-users workload. Replay parses and validates every record and
// parks it; no profile tree is built.
func BenchmarkDirectoryReplay(b *testing.B) {
	const users, prefsPerUser, shards = 5120, 20, 4
	env, err := dataset.RealEnvironment()
	if err != nil {
		b.Fatal(err)
	}
	rel, err := dataset.POIs(env, 300, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	segs := make([][]journal.Record, shards)
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("u%05d", u)
		prefs, err := dataset.ProfileSpec{Env: env, NumPrefs: prefsPerUser, Seed: benchSeed + int64(u),
			Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		sh := UserShard(name, shards)
		segs[sh] = append(segs[sh], journal.Record{Op: journal.OpUser, User: name})
		for _, p := range prefs {
			segs[sh] = append(segs[sh], journal.Record{Op: journal.OpAdd, User: name, Line: FormatPreference(p)})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewDirectory(env, rel, WithShards(shards), WithMaxResidentUsers(128))
		if err != nil {
			b.Fatal(err)
		}
		for sh, recs := range segs {
			if err := d.ReplayShard(sh, recs); err != nil {
				b.Fatal(err)
			}
		}
		if d.NumUsers() != users {
			b.Fatalf("replayed %d users, want %d", d.NumUsers(), users)
		}
	}
}

// Allocation ceilings of the load path on the fixture above. The parser
// allocates a line's descriptor atoms and their shared values array, and
// nothing else; a load adds one descriptor expansion per preference and
// the profile tree's own cells.
const (
	parseAllocBudget = 3
	loadAllocBudget  = 6500
)

// TestLoadAllocBudgets pins the load path's allocation counts with
// testing.AllocsPerRun: parsing one line of the fixture (averaged over
// every line), and loading a 522-preference text into a fresh system.
// AllocsPerRun floors its mean to an integer, so one run parses every
// line and the total is divided here: the per-line mean is compared
// unfloored.
func TestLoadAllocBudgets(t *testing.T) {
	env, rel, texts := loadFixture(t)
	lines := loadLines(texts)
	parse := testing.AllocsPerRun(2, func() {
		for _, line := range lines {
			if _, err := ParsePreference(line); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(lines))
	t.Logf("ParsePreference: %.3f allocs per line, budget %d", parse, parseAllocBudget)
	if parse > parseAllocBudget {
		t.Errorf("ParsePreference allocates %.3f per line, budget %d", parse, parseAllocBudget)
	}
	next := 0
	load := testing.AllocsPerRun(loadTextCount, func() {
		sys, err := NewSystem(env, rel, WithQueryCache(64))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadProfile(texts[next%loadTextCount]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("LoadProfile: %.0f allocs per 522-preference text, budget %d", load, loadAllocBudget)
	if load > loadAllocBudget {
		t.Errorf("LoadProfile allocates %.0f per text, budget %d", load, loadAllocBudget)
	}
}
