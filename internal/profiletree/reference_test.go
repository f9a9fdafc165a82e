package profiletree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/distance"
	"contextpref/internal/hierarchy"
)

// referenceSpecificity is the candidate cardinality as the product of
// materialized descendant-set sizes.
func referenceSpecificity(e *ctxmodel.Environment, s ctxmodel.State) int {
	total := 1
	for i, v := range s {
		if ds, err := e.Param(i).Hierarchy().Descendants(v); err == nil {
			total *= len(ds)
		}
	}
	return total
}

// referenceBetter is the (distance, state key) order with the keys
// built as strings.
func referenceBetter(a, b Candidate) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.State.Key() < b.State.Key()
}

// chainEnvironment has uniform hierarchies with fanout-1 levels, where
// a value and its only child span the same detailed run.
func chainEnvironment(t *testing.T) *ctxmodel.Environment {
	t.Helper()
	var params []*ctxmodel.Parameter
	for _, fanouts := range [][]int{{1, 1}, {2, 1, 3}, {4}} {
		name := fmt.Sprint("u", fanouts)
		h, err := hierarchy.Uniform(name, fanouts...)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ctxmodel.NewParameter(name, h)
		if err != nil {
			t.Fatal(err)
		}
		params = append(params, p)
	}
	e, err := ctxmodel.NewEnvironment(params...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// extendedWorld enumerates every extended state of the environment.
func extendedWorld(e *ctxmodel.Environment) []ctxmodel.State {
	out := []ctxmodel.State{{}}
	for i := 0; i < e.NumParams(); i++ {
		var next []ctxmodel.State
		for _, s := range out {
			for _, v := range e.Param(i).Hierarchy().ExtendedDomain() {
				next = append(next, append(s.Clone(), v))
			}
		}
		out = next
	}
	return out
}

// TestSpecificityMatchesDescendants checks the interval-length product
// against materialized descendant sets on every extended state.
func TestSpecificityMatchesDescendants(t *testing.T) {
	for _, e := range []*ctxmodel.Environment{env(t), chainEnvironment(t)} {
		for _, s := range extendedWorld(e) {
			if got, want := specificity(e, s), referenceSpecificity(e, s); got != want {
				t.Fatalf("specificity%v = %d, descendant sets give %d", s, got, want)
			}
		}
	}
}

// Property: over random profiles, every tree order and both metrics,
// Resolve, SearchCoverBest and ResolveAll answer exactly what the
// string-key reference derives from SearchCover's full candidate list.
func TestQuickResolveMatchesKeyReference(t *testing.T) {
	e := env(t)
	world := extendedWorld(e)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, err := New(e, AllOrders(3)[r.Intn(6)])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range randomPrefs(e, r, 1+r.Intn(30)) {
			_ = tr.Insert(p) // conflicting preferences are skipped
		}
		for _, m := range distance.All() {
			for q := 0; q < 20; q++ {
				s := world[r.Intn(len(world))]
				cands, _, err := tr.SearchCover(s, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cands {
					if c.Specificity != referenceSpecificity(e, c.State) {
						t.Errorf("%v: candidate %v specificity %d", s, c.State, c.Specificity)
						return false
					}
				}
				var want Candidate
				for i, c := range cands {
					if i == 0 || referenceBetter(c, want) {
						want = c
					}
				}
				best, _, ok, err := tr.SearchCoverBest(s, m)
				if err != nil || ok != (len(cands) > 0) || ok && !reflect.DeepEqual(best, want) {
					t.Errorf("%v: SearchCoverBest %+v, reference %+v", s, best, want)
					return false
				}
				if exact, _, _ := tr.SearchExact(s); len(exact) > 0 {
					want = Candidate{State: s, Entries: exact}
				}
				got, _, ok, err := tr.Resolve(s, m)
				if err != nil || ok != (len(cands) > 0) || ok && !reflect.DeepEqual(got, want) {
					t.Errorf("%v: Resolve %+v, reference %+v", s, got, want)
					return false
				}
				all, _, err := tr.ResolveAll(s, m)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(cands, func(i, j int) bool {
					a, b := cands[i], cands[j]
					if a.Distance != b.Distance {
						return a.Distance < b.Distance
					}
					if a.Specificity != b.Specificity {
						return a.Specificity < b.Specificity
					}
					return a.State.Key() < b.State.Key()
				})
				if !reflect.DeepEqual(all, cands) {
					t.Errorf("%v: ResolveAll %v, reference order %v", s, all, cands)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
