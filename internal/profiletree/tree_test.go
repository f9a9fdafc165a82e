package profiletree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/distance"
	"contextpref/internal/preference"
	"contextpref/internal/relation"
)

func env(t *testing.T) *ctxmodel.Environment {
	t.Helper()
	e, err := ctxmodel.ReferenceEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func clause(attr, val string) preference.Clause {
	return preference.Clause{Attr: attr, Op: relation.OpEq, Val: relation.S(val)}
}

// fig4Prefs are the three preferences of the paper's Fig. 4 example.
func fig4Prefs() []preference.Preference {
	return []preference.Preference{
		preference.MustNew(
			ctxmodel.MustDescriptor(
				ctxmodel.Eq("location", "Kifisia"),
				ctxmodel.Eq("temperature", "warm"),
				ctxmodel.Eq("accompanying_people", "friends")),
			clause("type", "cafeteria"), 0.9),
		preference.MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("accompanying_people", "friends")),
			clause("type", "brewery"), 0.9),
		preference.MustNew(
			ctxmodel.MustDescriptor(
				ctxmodel.Eq("location", "Plaka"),
				ctxmodel.In("temperature", "warm", "hot")),
			clause("name", "Acropolis"), 0.8),
	}
}

// fig4Order assigns accompanying_people to level 1, temperature to
// level 2 and location to level 3, as in the paper's Fig. 4.
func fig4Order(t *testing.T, e *ctxmodel.Environment) []int {
	t.Helper()
	order := make([]int, 0, 3)
	for _, name := range []string{"accompanying_people", "temperature", "location"} {
		i, ok := e.ParamIndex(name)
		if !ok {
			t.Fatalf("missing parameter %s", name)
		}
		order = append(order, i)
	}
	return order
}

func fig4Tree(t *testing.T) (*ctxmodel.Environment, *Tree) {
	t.Helper()
	e := env(t)
	tr, err := New(e, fig4Order(t, e))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig4Prefs() {
		if err := tr.Insert(p); err != nil {
			t.Fatalf("Insert(%v): %v", p, err)
		}
	}
	return e, tr
}

func st(t *testing.T, e *ctxmodel.Environment, vs ...string) ctxmodel.State {
	t.Helper()
	s, err := e.NewState(vs...)
	if err != nil {
		t.Fatalf("NewState(%v): %v", vs, err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	e := env(t)
	if _, err := New(nil, nil); err == nil {
		t.Error("nil environment should fail")
	}
	if _, err := New(e, []int{0, 1}); err == nil {
		t.Error("short order should fail")
	}
	if _, err := New(e, []int{0, 0, 1}); err == nil {
		t.Error("non-permutation should fail")
	}
	if _, err := New(e, []int{0, 1, 3}); err == nil {
		t.Error("out-of-range order should fail")
	}
	tr, err := New(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Order(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("default Order = %v", got)
	}
	if tr.Env() != e {
		t.Error("Env round-trip failed")
	}
}

func TestFig4Structure(t *testing.T) {
	_, tr := fig4Tree(t)
	// Paths: pref1 → (Kifisia, warm, friends); pref2 → (all, all, friends);
	// pref3 → (Plaka, warm, all) and (Plaka, hot, all). 4 paths.
	if got := tr.NumPaths(); got != 4 {
		t.Errorf("NumPaths = %d, want 4", got)
	}
	if got := tr.NumPreferences(); got != 3 {
		t.Errorf("NumPreferences = %d, want 3", got)
	}
	if got := tr.NumLeafEntries(); got != 4 {
		t.Errorf("NumLeafEntries = %d, want 4", got)
	}
	// Fig. 4 cells: level1 {friends, all} = 2; level2: under friends
	// {warm, all}, under all {warm, hot} = 4; level3: Kifisia, all,
	// Plaka, Plaka = 4. Total internal = 10.
	if got := tr.NumInternalCells(); got != 10 {
		t.Errorf("NumInternalCells = %d, want 10", got)
	}
	if got := tr.NumCells(); got != 14 {
		t.Errorf("NumCells = %d, want 14", got)
	}
	if tr.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
	// Paths() enumerates all four states with their entries.
	paths := tr.Paths()
	if len(paths) != 4 {
		t.Fatalf("Paths = %d, want 4", len(paths))
	}
	byKey := map[string][]Leaf{}
	for _, p := range paths {
		byKey[p.State.Key()] = p.Entries
	}
	e := tr.Env()
	if es := byKey[st(t, e, "Kifisia", "warm", "friends").Key()]; len(es) != 1 || es[0].Score != 0.9 {
		t.Errorf("path (Kifisia, warm, friends) = %v", es)
	}
	if es := byKey[st(t, e, "all", "all", "friends").Key()]; len(es) != 1 || !es[0].Clause.Equal(clause("type", "brewery")) {
		t.Errorf("path (all, all, friends) = %v", es)
	}
	if es := byKey[st(t, e, "Plaka", "hot", "all").Key()]; len(es) != 1 || !es[0].Clause.Equal(clause("name", "Acropolis")) {
		t.Errorf("path (Plaka, hot, all) = %v", es)
	}
}

func TestInsertConflictAtomic(t *testing.T) {
	e, tr := fig4Tree(t)
	cellsBefore, pathsBefore := tr.NumCells(), tr.NumPaths()
	// Conflicts with pref3 on (Plaka, warm, all): same clause, new score.
	bad := preference.MustNew(
		ctxmodel.MustDescriptor(
			ctxmodel.Eq("location", "Plaka"),
			ctxmodel.In("temperature", "mild", "warm")),
		clause("name", "Acropolis"), 0.3)
	err := tr.Insert(bad)
	var ce *preference.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("Insert conflicting = %v, want ConflictError", err)
	}
	if !ce.State.Equal(st(t, e, "Plaka", "warm", "all")) {
		t.Errorf("conflict state = %v", ce.State)
	}
	// Atomic: the (Plaka, mild, all) state must not have been inserted.
	if tr.NumCells() != cellsBefore || tr.NumPaths() != pathsBefore {
		t.Error("failed insert mutated the tree")
	}
	if entries, _, _ := tr.SearchExact(st(t, e, "Plaka", "mild", "all")); len(entries) != 0 {
		t.Error("partial insertion leaked a state")
	}
	// Same clause same score on an overlapping context is fine.
	ok := preference.MustNew(
		ctxmodel.MustDescriptor(
			ctxmodel.Eq("location", "Plaka"),
			ctxmodel.In("temperature", "mild", "warm")),
		clause("name", "Acropolis"), 0.8)
	if err := tr.Insert(ok); err != nil {
		t.Fatalf("same-score insert failed: %v", err)
	}
	// (Plaka, warm, all) entry not duplicated; (Plaka, mild, all) added.
	entries, _, _ := tr.SearchExact(st(t, e, "Plaka", "warm", "all"))
	if len(entries) != 1 {
		t.Errorf("duplicate leaf entry: %v", entries)
	}
	entries, _, _ = tr.SearchExact(st(t, e, "Plaka", "mild", "all"))
	if len(entries) != 1 {
		t.Errorf("missing new state: %v", entries)
	}
	// Score validation.
	if err := tr.Insert(preference.Preference{Descriptor: ctxmodel.MustDescriptor(), Clause: clause("a", "b"), Score: 1.5}); err == nil {
		t.Error("score out of range should fail")
	}
	// Bad descriptor.
	if err := tr.Insert(preference.Preference{
		Descriptor: ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis")),
		Clause:     clause("a", "b"), Score: 0.5}); err == nil {
		t.Error("bad descriptor should fail")
	}
}

func TestInsertProfile(t *testing.T) {
	e := env(t)
	pr, _ := preference.NewProfile(e)
	pr.MustAdd(fig4Prefs()...)
	tr, _ := New(e, nil)
	if err := tr.InsertProfile(pr); err != nil {
		t.Fatal(err)
	}
	if tr.NumPreferences() != 3 || tr.NumPaths() != 4 {
		t.Errorf("after InsertProfile: prefs=%d paths=%d", tr.NumPreferences(), tr.NumPaths())
	}
	// Error propagation with index.
	tr2, _ := New(e, nil)
	pr2, _ := preference.NewProfile(e)
	pr2.MustAdd(fig4Prefs()[2])
	// Bypass Profile.Add's check by constructing the conflicting pref
	// directly in a fresh profile and inserting both into one tree.
	if err := tr2.Insert(fig4Prefs()[2]); err != nil {
		t.Fatal(err)
	}
	conflict := preference.MustNew(fig4Prefs()[2].Descriptor, clause("name", "Acropolis"), 0.1)
	pr3, _ := preference.NewProfile(e)
	pr3.MustAdd(conflict)
	if err := tr2.InsertProfile(pr3); err == nil {
		t.Error("InsertProfile should surface conflicts")
	}
}

func TestSearchExact(t *testing.T) {
	e, tr := fig4Tree(t)
	entries, accesses, err := tr.SearchExact(st(t, e, "Kifisia", "warm", "friends"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Clause.Equal(clause("type", "cafeteria")) {
		t.Errorf("entries = %v", entries)
	}
	if accesses <= 0 {
		t.Errorf("accesses = %d", accesses)
	}
	// Exact-match cost bound: Σ per-level node sizes ≤ Σ |edom(Ci)|.
	bound := 0
	for i := 0; i < e.NumParams(); i++ {
		bound += e.Param(i).Hierarchy().ExtendedDomainSize()
	}
	if accesses > bound {
		t.Errorf("accesses %d exceeds edom bound %d", accesses, bound)
	}
	// Absent state: no entries, still counts accesses.
	entries, accesses, err = tr.SearchExact(st(t, e, "Perama", "cold", "alone"))
	if err != nil || len(entries) != 0 {
		t.Errorf("absent state: %v, %v", entries, err)
	}
	if accesses <= 0 {
		t.Error("absent search should still scan the root")
	}
	// Invalid state errors.
	if _, _, err := tr.SearchExact(ctxmodel.State{"x", "y", "z"}); err == nil {
		t.Error("invalid state should fail")
	}
}

func TestSearchCoverPaperScenario(t *testing.T) {
	e, tr := fig4Tree(t)
	// Query state (Plaka, warm, friends): covered by
	// (all, all, friends) [brewery] and (Plaka, warm, all) [Acropolis].
	q := st(t, e, "Plaka", "warm", "friends")
	cands, accesses, err := tr.SearchCover(q, distance.Hierarchy{})
	if err != nil {
		t.Fatal(err)
	}
	if accesses <= 0 {
		t.Error("no accesses counted")
	}
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want 2", cands)
	}
	got := map[string]float64{}
	for _, c := range cands {
		got[c.State.Key()] = c.Distance
	}
	// (all, all, friends): location 3 + temperature 2 + people 0 = 5.
	if d := got[st(t, e, "all", "all", "friends").Key()]; d != 5 {
		t.Errorf("dist(all,all,friends) = %v, want 5", d)
	}
	// (Plaka, warm, all): 0 + 0 + 1 = 1.
	if d := got[st(t, e, "Plaka", "warm", "all").Key()]; d != 1 {
		t.Errorf("dist(Plaka,warm,all) = %v, want 1", d)
	}
	best, ok := Best(cands)
	if !ok || !best.State.Equal(st(t, e, "Plaka", "warm", "all")) {
		t.Errorf("Best = %v, %v", best, ok)
	}
	// Under Jaccard the same state wins (desc(all)=3 people values →
	// 2/3 < location 1 + temp 2/3 + people ... compute: (all,all,friends):
	// loc 1-1/7, temp 1-1/5, people 2/3; (Plaka,warm,all): 0 + 0 + 2/3).
	cands, _, err = tr.SearchCover(q, distance.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	best, ok = Best(cands)
	if !ok || !best.State.Equal(st(t, e, "Plaka", "warm", "all")) {
		t.Errorf("Jaccard Best = %v, %v", best, ok)
	}
	// Invalid state errors.
	if _, _, err := tr.SearchCover(ctxmodel.State{"x", "y", "z"}, distance.Hierarchy{}); err == nil {
		t.Error("invalid state should fail")
	}
}

// The paper's Section 4.2 tie example: two matches where neither covers
// the other; the metric must pick the more specific one.
func TestSearchCoverDeadEndExactBranch(t *testing.T) {
	e := env(t)
	tr, _ := New(e, nil)
	// Profile: (Athens, cold, all) and (all, warm, all).
	tr.Insert(preference.MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Athens"), ctxmodel.Eq("temperature", "cold")),
		clause("type", "museum"), 0.7))
	tr.Insert(preference.MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("temperature", "warm")),
		clause("type", "park"), 0.6))
	// Query (Plaka, warm, friends): the exact-looking branch Athens
	// dead-ends (cold ≠ warm); the correct answer comes from the "all"
	// branch. A literal reading of the paper's if/else pseudocode would
	// miss it.
	best, _, ok, err := tr.Resolve(st(t, e, "Plaka", "warm", "friends"), distance.Hierarchy{})
	if err != nil || !ok {
		t.Fatalf("Resolve: %v, ok=%v", err, ok)
	}
	if !best.State.Equal(st(t, e, "all", "warm", "all")) {
		t.Errorf("best = %v, want (all, warm, all)", best.State)
	}
	if len(best.Entries) != 1 || !best.Entries[0].Clause.Equal(clause("type", "park")) {
		t.Errorf("entries = %v", best.Entries)
	}
}

func TestResolveExactShortCircuit(t *testing.T) {
	e, tr := fig4Tree(t)
	q := st(t, e, "Kifisia", "warm", "friends")
	best, accesses, ok, err := tr.Resolve(q, distance.Hierarchy{})
	if err != nil || !ok {
		t.Fatalf("Resolve: %v, %v", err, ok)
	}
	if best.Distance != 0 || !best.State.Equal(q) {
		t.Errorf("exact resolve = %+v", best)
	}
	// Exact path only: accesses must be small (≤ sum of node widths).
	if accesses > 10 {
		t.Errorf("exact resolve accesses = %d, expected short-circuit", accesses)
	}
	// No covering state at all → ok=false.
	e2 := env(t)
	tr2, _ := New(e2, nil)
	tr2.Insert(preference.MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("temperature", "cold")),
		clause("type", "museum"), 0.5))
	_, _, ok, err = tr2.Resolve(st(t, e2, "Plaka", "warm", "friends"), distance.Hierarchy{})
	if err != nil || ok {
		t.Errorf("Resolve with no cover = ok %v, err %v; want ok=false", ok, err)
	}
	if _, _, _, err := tr2.Resolve(ctxmodel.State{"bad"}, distance.Hierarchy{}); err == nil {
		t.Error("invalid state should fail")
	}
}

func TestBest(t *testing.T) {
	if _, ok := Best(nil); ok {
		t.Error("Best(nil) should be not-ok")
	}
	a := Candidate{State: ctxmodel.State{"b"}, Distance: 1}
	b := Candidate{State: ctxmodel.State{"a"}, Distance: 1}
	c := Candidate{State: ctxmodel.State{"c"}, Distance: 2}
	best, ok := Best([]Candidate{a, b, c})
	if !ok || !best.State.Equal(b.State) {
		t.Errorf("Best tie-break = %v", best)
	}
	best, _ = Best([]Candidate{c, a})
	if !best.State.Equal(a.State) {
		t.Errorf("Best min = %v", best)
	}
}

func TestMaxCells(t *testing.T) {
	// Paper formula: m1*(1 + m2*(1 + m3)).
	if got := MaxCells([]int{2, 3, 4}); got != 2*(1+3*(1+4)) {
		t.Errorf("MaxCells = %d", got)
	}
	if got := MaxCells([]int{5}); got != 5 {
		t.Errorf("MaxCells single = %d", got)
	}
	if got := MaxCells(nil); got != 0 {
		t.Errorf("MaxCells nil = %d", got)
	}
}

func TestAllOrders(t *testing.T) {
	orders := AllOrders(3)
	if len(orders) != 6 {
		t.Fatalf("AllOrders(3) = %d, want 6", len(orders))
	}
	want := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	if !reflect.DeepEqual(orders, want) {
		t.Errorf("AllOrders(3) = %v, want %v", orders, want)
	}
	if len(AllOrders(1)) != 1 {
		t.Error("AllOrders(1) should have one order")
	}
}

func TestOrderInvariance(t *testing.T) {
	// Every ordering stores the same states and answers the same
	// queries; only cell counts differ.
	e := env(t)
	prefs := fig4Prefs()
	var trees []*Tree
	for _, order := range AllOrders(3) {
		tr, err := New(e, order)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prefs {
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		trees = append(trees, tr)
	}
	q := st(t, e, "Plaka", "warm", "friends")
	ref, _, _ := trees[0].SearchCover(q, distance.Hierarchy{})
	refSet := map[string]float64{}
	for _, c := range ref {
		refSet[c.State.Key()] = c.Distance
	}
	for i, tr := range trees[1:] {
		if tr.NumPaths() != trees[0].NumPaths() {
			t.Errorf("tree %d: NumPaths = %d, want %d", i+1, tr.NumPaths(), trees[0].NumPaths())
		}
		cands, _, _ := tr.SearchCover(q, distance.Hierarchy{})
		if len(cands) != len(ref) {
			t.Fatalf("tree %d: %d candidates, want %d", i+1, len(cands), len(ref))
		}
		for _, c := range cands {
			if d, ok := refSet[c.State.Key()]; !ok || d != c.Distance {
				t.Errorf("tree %d: candidate %v distance %v mismatch", i+1, c.State, c.Distance)
			}
		}
	}
}

func TestSequentialBasics(t *testing.T) {
	e := env(t)
	if _, err := NewSequential(nil); err == nil {
		t.Error("nil environment should fail")
	}
	sq, err := NewSequential(e)
	if err != nil {
		t.Fatal(err)
	}
	if sq.Env() != e {
		t.Error("Env round-trip failed")
	}
	for _, p := range fig4Prefs() {
		if err := sq.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if sq.NumPreferences() != 3 || sq.NumStates() != 4 {
		t.Errorf("prefs=%d states=%d", sq.NumPreferences(), sq.NumStates())
	}
	// Cells: 4 states × 3 values + 4 entries = 16.
	if got := sq.NumCells(); got != 16 {
		t.Errorf("NumCells = %d, want 16", got)
	}
	if sq.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
	// Conflict detection mirrors the tree.
	bad := preference.MustNew(fig4Prefs()[2].Descriptor, clause("name", "Acropolis"), 0.1)
	var ce *preference.ConflictError
	if err := sq.Insert(bad); !errors.As(err, &ce) {
		t.Errorf("Insert conflicting = %v", err)
	}
	// Idempotent re-insert.
	if err := sq.Insert(fig4Prefs()[1]); err != nil {
		t.Fatal(err)
	}
	if sq.NumStates() != 4 {
		t.Errorf("re-insert changed states: %d", sq.NumStates())
	}
	// Validation.
	if err := sq.Insert(preference.Preference{Descriptor: ctxmodel.MustDescriptor(), Clause: clause("a", "b"), Score: -1}); err == nil {
		t.Error("bad score should fail")
	}
	if err := sq.Insert(preference.Preference{
		Descriptor: ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis")),
		Clause:     clause("a", "b"), Score: 0.5}); err == nil {
		t.Error("bad descriptor should fail")
	}
	// Profile insertion.
	pr, _ := preference.NewProfile(e)
	pr.MustAdd(fig4Prefs()...)
	sq2, _ := NewSequential(e)
	if err := sq2.InsertProfile(pr); err != nil {
		t.Fatal(err)
	}
	if sq2.NumStates() != 4 {
		t.Errorf("InsertProfile states = %d", sq2.NumStates())
	}
	// Search validation errors.
	if _, _, err := sq.SearchExact(ctxmodel.State{"bad"}); err == nil {
		t.Error("invalid exact search should fail")
	}
	if _, _, err := sq.SearchCover(ctxmodel.State{"bad"}, distance.Hierarchy{}); err == nil {
		t.Error("invalid cover search should fail")
	}
	if _, _, _, err := sq.Resolve(ctxmodel.State{"bad"}, distance.Hierarchy{}); err == nil {
		t.Error("invalid resolve should fail")
	}
}

// randomPrefs generates n random preferences over the reference
// environment, avoiding conflicts by deriving the score from the
// clause value.
func randomPrefs(e *ctxmodel.Environment, r *rand.Rand, n int) []preference.Preference {
	var out []preference.Preference
	for len(out) < n {
		var pds []ctxmodel.ParamDescriptor
		for i := 0; i < e.NumParams(); i++ {
			if r.Intn(2) == 0 {
				continue
			}
			ed := e.Param(i).Hierarchy().ExtendedDomain()
			if r.Intn(4) == 0 {
				// in-descriptor with 2 values
				a, b := ed[r.Intn(len(ed))], ed[r.Intn(len(ed))]
				if a == b {
					pds = append(pds, ctxmodel.Eq(e.Param(i).Name(), a))
				} else {
					pds = append(pds, ctxmodel.In(e.Param(i).Name(), a, b))
				}
			} else {
				pds = append(pds, ctxmodel.Eq(e.Param(i).Name(), ed[r.Intn(len(ed))]))
			}
		}
		d, err := ctxmodel.NewDescriptor(pds...)
		if err != nil {
			continue
		}
		v := r.Intn(10)
		p, err := preference.New(d, clause("type", string(rune('a'+v))), float64(v)/10)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Property: tree and sequential store resolve every query to the same
// best distance and the same entry multiset, and the tree never
// accesses more cells than the sequential scan on cover queries.
func TestQuickTreeSequentialEquivalence(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prefs := randomPrefs(e, r, 1+r.Intn(30))
		order := AllOrders(3)[r.Intn(6)]
		tr, err := New(e, order)
		if err != nil {
			return false
		}
		sq, err := NewSequential(e)
		if err != nil {
			return false
		}
		for _, p := range prefs {
			e1 := tr.Insert(p)
			e2 := sq.Insert(p)
			if (e1 == nil) != (e2 == nil) {
				return false // both stores must agree on conflicts
			}
		}
		if tr.NumPaths() != sq.NumStates() {
			return false
		}
		for _, m := range distance.All() {
			for q := 0; q < 10; q++ {
				qs := make(ctxmodel.State, e.NumParams())
				for i := range qs {
					ed := e.Param(i).Hierarchy().ExtendedDomain()
					qs[i] = ed[r.Intn(len(ed))]
				}
				tc, _, err1 := tr.SearchCover(qs, m)
				sc, _, err2 := sq.SearchCover(qs, m)
				if err1 != nil || err2 != nil || len(tc) != len(sc) {
					return false
				}
				tb, tok := Best(tc)
				sb, sok := Best(sc)
				if tok != sok {
					return false
				}
				// The tree sums per-value distances in tree-level
				// order, the baseline in environment order; allow for
				// float reassociation.
				if tok && (math.Abs(tb.Distance-sb.Distance) > 1e-9 || len(tb.Entries) != len(sb.Entries)) {
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

// Property: every candidate returned by SearchCover covers the query,
// its distance matches the metric, and its entries equal SearchExact on
// the candidate state. Exact lookups of stored paths always succeed.
func TestQuickSearchCoverSoundComplete(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prefs := randomPrefs(e, r, 1+r.Intn(25))
		tr, _ := New(e, nil)
		for _, p := range prefs {
			_ = tr.Insert(p) // conflicts fine, skip them
		}
		m := distance.All()[r.Intn(2)]
		qs := make(ctxmodel.State, e.NumParams())
		for i := range qs {
			dv := e.Param(i).Hierarchy().DetailedValues()
			qs[i] = dv[r.Intn(len(dv))]
		}
		cands, _, err := tr.SearchCover(qs, m)
		if err != nil {
			return false
		}
		found := map[string]bool{}
		for _, c := range cands {
			if !e.Covers(c.State, qs) {
				return false
			}
			want, err := m.StateDistance(e, c.State, qs)
			if err != nil || want != c.Distance {
				return false
			}
			entries, _, err := tr.SearchExact(c.State)
			if err != nil || len(entries) != len(c.Entries) {
				return false
			}
			found[c.State.Key()] = true
		}
		// Completeness: every stored path that covers qs is a candidate.
		for _, p := range tr.Paths() {
			if e.Covers(p.State, qs) && !found[p.State.Key()] {
				return false
			}
		}
		// Exact lookups of stored paths succeed.
		for _, p := range tr.Paths() {
			entries, _, err := tr.SearchExact(p.State)
			if err != nil || len(entries) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cell accounting — NumCells ≤ MaxCells bound for the chosen
// order, and NumLeafEntries ≥ NumPaths.
func TestQuickCellAccounting(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		order := AllOrders(3)[r.Intn(6)]
		tr, _ := New(e, order)
		for _, p := range randomPrefs(e, r, 1+r.Intn(40)) {
			_ = tr.Insert(p)
		}
		sizes := make([]int, len(order))
		for lvl, param := range order {
			sizes[lvl] = e.Param(param).Hierarchy().ExtendedDomainSize()
		}
		return tr.NumInternalCells() <= MaxCells(sizes) &&
			tr.NumLeafEntries() >= tr.NumPaths() &&
			tr.NumCells() == tr.NumInternalCells()+tr.NumLeafEntries()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDelete(t *testing.T) {
	e, tr := fig4Tree(t)
	prefs := fig4Prefs()
	// Deleting pref3 removes two paths ((Plaka, warm, all) and
	// (Plaka, hot, all)) and their cells.
	before := tr.NumCells()
	removed, err := tr.Delete(prefs[2])
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if tr.NumPaths() != 2 || tr.NumPreferences() != 2 {
		t.Errorf("paths=%d prefs=%d after delete", tr.NumPaths(), tr.NumPreferences())
	}
	if tr.NumCells() >= before {
		t.Errorf("cells %d not pruned (was %d)", tr.NumCells(), before)
	}
	if entries, _, _ := tr.SearchExact(st(t, e, "Plaka", "warm", "all")); len(entries) != 0 {
		t.Error("deleted state still resolvable")
	}
	// Deleting again is a no-op.
	removed, err = tr.Delete(prefs[2])
	if err != nil || removed != 0 {
		t.Errorf("second delete = %d, %v", removed, err)
	}
	// Deleting a different-score variant does not match.
	variant := preference.MustNew(prefs[1].Descriptor, prefs[1].Clause, 0.1234)
	if removed, _ := tr.Delete(variant); removed != 0 {
		t.Error("score-mismatched delete removed an entry")
	}
	// Bad descriptor propagates.
	bad := preference.Preference{
		Descriptor: ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis")),
		Clause:     clause("a", "b"), Score: 0.5,
	}
	if _, err := tr.Delete(bad); err == nil {
		t.Error("bad descriptor should fail")
	}
	// Delete-then-reinsert restores resolution.
	if err := tr.Insert(prefs[2]); err != nil {
		t.Fatal(err)
	}
	if entries, _, _ := tr.SearchExact(st(t, e, "Plaka", "hot", "all")); len(entries) != 1 {
		t.Error("reinsert after delete failed")
	}
}

// Property: deleting a random subset of preferences with pairwise
// distinct clauses leaves a tree identical (paths, entries, cells) to
// one freshly built from the complement. Distinct clauses matter:
// storage is per (state, clause, score) entry — two preferences whose
// expansions share an entry also share its deletion, mirroring how
// insertion deduplicates it.
func TestQuickDeleteEquivalence(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		prefs := make([]preference.Preference, 0, n)
		for i := 0; i < n; i++ {
			var pds []ctxmodel.ParamDescriptor
			for k := 0; k < e.NumParams(); k++ {
				if r.Intn(2) == 0 {
					continue
				}
				ed := e.Param(k).Hierarchy().ExtendedDomain()
				if r.Intn(4) == 0 {
					a, b := ed[r.Intn(len(ed))], ed[r.Intn(len(ed))]
					if a != b {
						pds = append(pds, ctxmodel.In(e.Param(k).Name(), a, b))
						continue
					}
				}
				pds = append(pds, ctxmodel.Eq(e.Param(k).Name(), ed[r.Intn(len(ed))]))
			}
			d, err := ctxmodel.NewDescriptor(pds...)
			if err != nil {
				return false
			}
			// A unique clause per preference keeps entries disjoint.
			prefs = append(prefs, preference.MustNew(d,
				clause("type", fmt.Sprintf("t%d", i)), 0.5))
		}
		full, _ := New(e, nil)
		for _, p := range prefs {
			if err := full.Insert(p); err != nil {
				return false
			}
		}
		var kept []preference.Preference
		for _, p := range prefs {
			if r.Intn(2) == 0 {
				if removed, err := full.Delete(p); err != nil || removed == 0 {
					return false
				}
			} else {
				kept = append(kept, p)
			}
		}
		rebuilt, _ := New(e, nil)
		for _, p := range kept {
			_ = rebuilt.Insert(p)
		}
		if full.NumPaths() != rebuilt.NumPaths() ||
			full.NumLeafEntries() != rebuilt.NumLeafEntries() ||
			full.NumInternalCells() != rebuilt.NumInternalCells() {
			return false
		}
		for _, p := range rebuilt.Paths() {
			entries, _, err := full.SearchExact(p.State)
			if err != nil || len(entries) != len(p.Entries) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSequentialDelete(t *testing.T) {
	e := env(t)
	sq, _ := NewSequential(e)
	prefs := fig4Prefs()
	for _, p := range prefs {
		if err := sq.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := sq.Delete(prefs[2])
	if err != nil || removed != 2 {
		t.Fatalf("Delete = %d, %v", removed, err)
	}
	if sq.NumStates() != 2 || sq.NumPreferences() != 2 {
		t.Errorf("states=%d prefs=%d", sq.NumStates(), sq.NumPreferences())
	}
	if entries, _, _ := sq.SearchExact(st(t, e, "Plaka", "hot", "all")); len(entries) != 0 {
		t.Error("deleted state still present")
	}
	// Remaining states still resolvable (index consistency after drop).
	if entries, _, _ := sq.SearchExact(st(t, e, "all", "all", "friends")); len(entries) != 1 {
		t.Error("surviving state lost")
	}
	if removed, _ := sq.Delete(prefs[2]); removed != 0 {
		t.Error("second delete removed something")
	}
	bad := preference.Preference{
		Descriptor: ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis")),
		Clause:     clause("a", "b"), Score: 0.5,
	}
	if _, err := sq.Delete(bad); err == nil {
		t.Error("bad descriptor should fail")
	}
}

// Property: tree and sequential deletes stay in lockstep — after the
// same inserts and deletes both stores hold the same states and answer
// identically.
func TestQuickDeleteParity(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		var prefs []preference.Preference
		for i := 0; i < n; i++ {
			var pds []ctxmodel.ParamDescriptor
			for k := 0; k < e.NumParams(); k++ {
				if r.Intn(2) == 0 {
					continue
				}
				dom := e.Param(k).Hierarchy().ExtendedDomain()
				pds = append(pds, ctxmodel.Eq(e.Param(k).Name(), dom[r.Intn(len(dom))]))
			}
			d, err := ctxmodel.NewDescriptor(pds...)
			if err != nil {
				return false
			}
			prefs = append(prefs, preference.MustNew(d,
				clause("type", fmt.Sprintf("u%d", i)), 0.5))
		}
		tr, _ := New(e, AllOrders(3)[r.Intn(6)])
		sq, _ := NewSequential(e)
		for _, p := range prefs {
			if err := tr.Insert(p); err != nil {
				return false
			}
			if err := sq.Insert(p); err != nil {
				return false
			}
		}
		for _, p := range prefs {
			if r.Intn(2) == 0 {
				continue
			}
			a, err1 := tr.Delete(p)
			b, err2 := sq.Delete(p)
			if err1 != nil || err2 != nil || a != b {
				return false
			}
		}
		if tr.NumPaths() != sq.NumStates() || tr.NumPreferences() != sq.NumPreferences() {
			return false
		}
		for _, p := range tr.Paths() {
			entries, _, err := sq.SearchExact(p.State)
			if err != nil || len(entries) != len(p.Entries) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestVersionCountsMutations: Version moves on every applied insertion
// and on every Delete that removed an entry, and on nothing else — not
// on rejected batches, checks, searches or no-op deletes.
func TestVersionCountsMutations(t *testing.T) {
	e := env(t)
	tr, err := New(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefs := fig4Prefs()
	expect := func(step string, want uint64) {
		t.Helper()
		if got := tr.Version(); got != want {
			t.Fatalf("%s: Version = %d, want %d", step, got, want)
		}
	}
	expect("empty", 0)
	if err := tr.InsertAll(prefs...); err != nil {
		t.Fatal(err)
	}
	expect("insert batch", 3)
	conflicting := preference.MustNew(prefs[0].Descriptor, prefs[0].Clause, 0.1)
	if err := tr.InsertAll(conflicting); err == nil {
		t.Fatal("conflicting insert accepted")
	}
	if err := tr.CheckInsert(prefs[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tr.Resolve(st(t, e, "Plaka", "warm", "friends"), distance.Hierarchy{}); err != nil {
		t.Fatal(err)
	}
	expect("rejected insert, check and resolve", 3)
	if n, err := tr.Delete(conflicting); err != nil || n != 0 {
		t.Fatalf("Delete(absent) = %d, %v", n, err)
	}
	expect("no-op delete", 3)
	if n, err := tr.Delete(prefs[2]); err != nil || n == 0 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	expect("delete", 4)
	if err := tr.Insert(prefs[2]); err != nil {
		t.Fatal(err)
	}
	expect("re-insert", 5)
}
