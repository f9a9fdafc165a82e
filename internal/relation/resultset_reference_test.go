package relation

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// referenceResultSet is the map-of-slices ResultSet the match slice
// replaced: per-tuple score lists keyed by index, ranked with
// sort.Slice.
type referenceResultSet struct {
	rel    *Relation
	scores map[int][]float64
}

func (rs *referenceResultSet) Add(idx int, score float64) {
	rs.scores[idx] = append(rs.scores[idx], score)
}

func (rs *referenceResultSet) Ranked(c Combiner) []ScoredTuple {
	out := make([]ScoredTuple, 0, len(rs.scores))
	for idx, ss := range rs.scores {
		out = append(out, ScoredTuple{Index: idx, Tuple: rs.rel.Tuple(idx), Score: c.Combine(ss)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Index < out[j].Index
	})
	return out
}

func (rs *referenceResultSet) Top(k int, c Combiner) []ScoredTuple {
	ranked := rs.Ranked(c)
	if k <= 0 || len(ranked) <= k {
		return ranked
	}
	cut := k
	for cut < len(ranked) && ranked[cut].Score == ranked[k-1].Score {
		cut++
	}
	return ranked[:cut]
}

// sameRanking compares two rankings index by index, scores bit for bit.
func sameRanking(got, want []ScoredTuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || &got[i].Tuple[0] != &want[i].Tuple[0] ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// Property: for max, min and avg, Ranked, Top and Len agree with the
// map-of-slices reference, scores bit for bit, over random adds with
// repeated indexes (some past the stack buffer of one tuple's scores),
// full-precision and tied scores, and rankings taken between adds.
func TestQuickResultSetMatchesReference(t *testing.T) {
	s, err := NewSchema("t", Column{Name: "id", Kind: KindInt})
	if err != nil {
		t.Fatal(err)
	}
	rel := New(s)
	for i := 0; i < 40; i++ {
		if _, err := rel.Insert(I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rs := NewResultSet(rel)
		ref := &referenceResultSet{rel: rel, scores: map[int][]float64{}}
		span := 1 + r.Intn(rel.Len())
		for round := 0; round < 3; round++ {
			for n := r.Intn(60); n > 0; n-- {
				idx := r.Intn(span)
				score := r.Float64()
				if r.Intn(3) == 0 {
					score = float64(r.Intn(5)) / 4
				}
				rs.Add(idx, score)
				ref.Add(idx, score)
			}
			if rs.Len() != len(ref.scores) {
				t.Errorf("Len = %d, reference %d", rs.Len(), len(ref.scores))
				return false
			}
			for _, c := range []Combiner{CombineMax, CombineMin, CombineAvg} {
				if got, want := rs.Ranked(c), ref.Ranked(c); !sameRanking(got, want) {
					t.Errorf("%s: Ranked %v, reference %v", c, got, want)
					return false
				}
				k := r.Intn(8)
				if got, want := rs.Top(k, c), ref.Top(k, c); !sameRanking(got, want) {
					t.Errorf("%s: Top(%d) %v, reference %v", c, k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
