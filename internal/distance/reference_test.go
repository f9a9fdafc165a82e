package distance_test

import (
	"fmt"
	"math"
	"testing"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/dataset"
	"contextpref/internal/distance"
	"contextpref/internal/hierarchy"
)

// referenceJaccard is the set-based Def. 16 distance the interval form
// replaced: both detailed descendant sets materialized, the overlap
// counted through a map.
func referenceJaccard(h *hierarchy.Hierarchy, v1, v2 string) (float64, error) {
	d1, err := h.Descendants(v1)
	if err != nil {
		return 0, fmt.Errorf("distance: %w", err)
	}
	d2, err := h.Descendants(v2)
	if err != nil {
		return 0, fmt.Errorf("distance: %w", err)
	}
	set1 := make(map[string]bool, len(d1))
	for _, v := range d1 {
		set1[v] = true
	}
	inter := 0
	for _, v := range d2 {
		if set1[v] {
			inter++
		}
	}
	union := len(d1) + len(d2) - inter
	if union == 0 {
		return math.Inf(1), nil
	}
	return 1 - float64(inter)/float64(union), nil
}

// referenceAncestorOrSelf is the covers ingredient by an anc walk: a
// is v or v's ancestor at a's level.
func referenceAncestorOrSelf(h *hierarchy.Hierarchy, a, v string) bool {
	la, ok := h.LevelOf(a)
	if !ok {
		return false
	}
	lv, ok := h.LevelOf(v)
	if !ok || la < lv {
		return false
	}
	anc, err := h.Anc(v, la)
	return err == nil && anc == a
}

// referenceEnvironments are the environments whose every hierarchy the
// interval encoding is checked on: the served one, the paper's running
// example, and uniform hierarchies including fanout-1 chains, where a
// value and its only child span the same detailed run.
func referenceEnvironments(t *testing.T) []namedEnv {
	t.Helper()
	real, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := dataset.SyntheticEnvironment(
		dataset.SyntheticSpec{Name: "flat", Fanouts: []int{7}},
		dataset.SyntheticSpec{Name: "chain", Fanouts: []int{1, 1, 1}},
		dataset.SyntheticSpec{Name: "mixed", Fanouts: []int{3, 1, 2, 1}},
		dataset.SyntheticSpec{Name: "single", Fanouts: []int{1}},
		dataset.SyntheticSpec{Name: "p100", Fanouts: []int{5, 4, 5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return []namedEnv{{"real", real}, {"reference", ctxmodel.MustReferenceEnvironment()}, {"uniform", uniform}}
}

type namedEnv struct {
	name string
	env  *ctxmodel.Environment
}

// TestIntervalEncodingMatchesReference checks, for every pair of values
// of every hierarchy of the reference environments, that JaccardValue
// equals the set-based distance bit for bit, that IsAncestorOrSelf
// agrees with an anc walk, and that each value's span is exactly its
// descendant set.
func TestIntervalEncodingMatchesReference(t *testing.T) {
	for _, ne := range referenceEnvironments(t) {
		e := ne.env
		for p := 0; p < e.NumParams(); p++ {
			h := e.Param(p).Hierarchy()
			dom := h.ExtendedDomain()
			t.Run(ne.name+"/"+h.Name(), func(t *testing.T) {
				detailed := h.DetailedValues()
				for _, v := range dom {
					sp, ok := h.SpanOf(v)
					if !ok {
						t.Fatalf("no span for %q", v)
					}
					desc, err := h.Descendants(v)
					if err != nil {
						t.Fatal(err)
					}
					if sp.Len() != len(desc) {
						t.Fatalf("span %v of %q has length %d, |desc| = %d", sp, v, sp.Len(), len(desc))
					}
					if l, _ := h.LevelOf(v); int(sp.Level) != l {
						t.Fatalf("span %v of %q at level %d", sp, v, l)
					}
					got := hierarchy.SortedCopy(detailed[sp.Lo:sp.Hi])
					if want := hierarchy.SortedCopy(desc); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("span %v of %q names %v, desc = %v", sp, v, got, want)
					}
				}
				for _, a := range dom {
					for _, v := range dom {
						if got, want := h.IsAncestorOrSelf(a, v), referenceAncestorOrSelf(h, a, v); got != want {
							t.Fatalf("IsAncestorOrSelf(%q, %q) = %v, anc walk says %v", a, v, got, want)
						}
						got, err := distance.JaccardValue(e, p, a, v)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := referenceJaccard(h, a, v)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("JaccardValue(%q, %q) = %v, set-based %v", a, v, got, want)
						}
					}
				}
			})
		}
	}
}

// TestJaccardValueUnknownValue keeps the set-based form's error for a
// value outside the hierarchy.
func TestJaccardValueUnknownValue(t *testing.T) {
	e := ctxmodel.MustReferenceEnvironment()
	h := e.Param(0).Hierarchy()
	for _, pair := range [][2]string{{"Atlantis", "Plaka"}, {"Plaka", "Atlantis"}} {
		_, err := distance.JaccardValue(e, 0, pair[0], pair[1])
		_, want := referenceJaccard(h, pair[0], pair[1])
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("JaccardValue(%q, %q) error %v, set-based %v", pair[0], pair[1], err, want)
		}
	}
}
