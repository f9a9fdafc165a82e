package query

import (
	"context"
	"reflect"
	"testing"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/distance"
	"contextpref/internal/preference"
	"contextpref/internal/profiletree"
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

func poiRelation(t *testing.T) *relation.Relation {
	t.Helper()
	s, err := relation.NewSchema("points_of_interest",
		relation.Column{Name: "pid", Kind: relation.KindInt},
		relation.Column{Name: "name", Kind: relation.KindString},
		relation.Column{Name: "type", Kind: relation.KindString},
		relation.Column{Name: "open_air", Kind: relation.KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	rows := [][]relation.Value{
		{relation.I(1), relation.S("Acropolis"), relation.S("monument"), relation.B(true)},
		{relation.I(2), relation.S("Benaki Museum"), relation.S("museum"), relation.B(false)},
		{relation.I(3), relation.S("Plaka Brewery"), relation.S("brewery"), relation.B(false)},
		{relation.I(4), relation.S("Mikro Cafe"), relation.S("cafeteria"), relation.B(true)},
		{relation.I(5), relation.S("City Zoo"), relation.S("zoo"), relation.B(true)},
	}
	for _, row := range rows {
		if _, err := r.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func clause(attr, val string) preference.Clause {
	return preference.Clause{Attr: attr, Op: relation.OpEq, Val: relation.S(val)}
}

func loadedTree(t *testing.T, e *ctxmodel.Environment) *profiletree.Tree {
	t.Helper()
	tr, err := profiletree.New(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	prefs := []preference.Preference{
		preference.MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.Eq("temperature", "warm")),
			clause("name", "Acropolis"), 0.8),
		preference.MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("accompanying_people", "friends")),
			clause("type", "brewery"), 0.9),
		preference.MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Athens")),
			clause("type", "museum"), 0.6),
		preference.MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("temperature", "good")),
			clause("type", "zoo"), 0.4),
	}
	for _, p := range prefs {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func engine(t *testing.T) (*ctxmodel.Environment, *Engine) {
	t.Helper()
	e := env(t)
	en, err := NewEngine(loadedTree(t, e), poiRelation(t), distance.Hierarchy{}, relation.CombineMax)
	if err != nil {
		t.Fatal(err)
	}
	return e, en
}

func TestNewEngineValidation(t *testing.T) {
	e := env(t)
	tr := loadedTree(t, e)
	rel := poiRelation(t)
	if _, err := NewEngine(nil, rel, distance.Hierarchy{}, relation.CombineMax); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := NewEngine(tr, nil, distance.Hierarchy{}, relation.CombineMax); err == nil {
		t.Error("nil relation should fail")
	}
	if _, err := NewEngine(tr, rel, nil, relation.CombineMax); err == nil {
		t.Error("nil metric should fail")
	}
	en, err := NewEngine(tr, rel, distance.Jaccard{}, relation.CombineAvg)
	if err != nil {
		t.Fatal(err)
	}
	if en.Store() != Store(tr) || en.Relation() != rel || en.Metric().Name() != "jaccard" {
		t.Error("accessors broken")
	}
}

func TestQueryStates(t *testing.T) {
	e, en := engine(t)
	// Explicit descriptor wins.
	cq := Contextual{Ecod: ctxmodel.ExtendedDescriptor{
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.In("temperature", "warm", "hot")),
	}}
	cur, _ := e.NewState("Perama", "cold", "alone")
	states, err := en.QueryStates(cq, cur)
	if err != nil || len(states) != 2 {
		t.Fatalf("QueryStates = %v, %v", states, err)
	}
	// Implicit current context.
	states, err = en.QueryStates(Contextual{}, cur)
	if err != nil || len(states) != 1 || !states[0].Equal(cur) {
		t.Fatalf("implicit QueryStates = %v, %v", states, err)
	}
	// Neither → none.
	states, err = en.QueryStates(Contextual{}, nil)
	if err != nil || states != nil {
		t.Fatalf("no-context QueryStates = %v, %v", states, err)
	}
	// Invalid current state.
	if _, err := en.QueryStates(Contextual{}, ctxmodel.State{"bad"}); err == nil {
		t.Error("invalid current state should fail")
	}
	// Invalid descriptor.
	bad := Contextual{Ecod: ctxmodel.ExtendedDescriptor{ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis"))}}
	if _, err := en.QueryStates(bad, nil); err == nil {
		t.Error("invalid descriptor should fail")
	}
}

func TestExecuteExactMatch(t *testing.T) {
	e, en := engine(t)
	// Current context exactly (Plaka, warm, all) — stored for pref 1.
	cur, _ := e.NewState("Plaka", "warm", "all")
	res, err := en.Execute(Contextual{}, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contextual {
		t.Fatal("expected contextual execution")
	}
	if len(res.Resolutions) != 1 || !res.Resolutions[0].Found || !res.Resolutions[0].Exact {
		t.Fatalf("resolutions = %+v", res.Resolutions)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].Tuple[1].Str() != "Acropolis" || res.Tuples[0].Score != 0.8 {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	if res.Accesses <= 0 {
		t.Error("accesses not counted")
	}
}

func TestExecuteCoverMatch(t *testing.T) {
	e, en := engine(t)
	// (Plaka, warm, friends) is not stored; best cover is
	// (Plaka, warm, all) at hierarchy distance 1.
	cur, _ := e.NewState("Plaka", "warm", "friends")
	res, err := en.Execute(Contextual{}, cur)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Resolutions[0]
	if !r.Found || r.Exact {
		t.Fatalf("resolution = %+v", r)
	}
	if !r.Match.State.Equal(ctxmodel.State{"Plaka", "warm", "all"}) {
		t.Errorf("match = %v", r.Match.State)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].Tuple[1].Str() != "Acropolis" {
		t.Errorf("tuples = %v", res.Tuples)
	}
}

func TestExecuteExploratoryQuery(t *testing.T) {
	e, en := engine(t)
	_ = e
	// "When I am in Athens with good weather": two composite
	// descriptors resolve to museum (0.6) and zoo (0.4).
	cq := Contextual{Ecod: ctxmodel.ExtendedDescriptor{
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Athens")),
		ctxmodel.MustDescriptor(ctxmodel.Eq("temperature", "good")),
	}}
	res, err := en.Execute(cq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Resolutions) != 2 {
		t.Fatalf("resolutions = %d", len(res.Resolutions))
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	if res.Tuples[0].Tuple[2].Str() != "museum" || res.Tuples[0].Score != 0.6 {
		t.Errorf("top tuple = %v score %v", res.Tuples[0].Tuple, res.Tuples[0].Score)
	}
	if res.Tuples[1].Tuple[2].Str() != "zoo" || res.Tuples[1].Score != 0.4 {
		t.Errorf("second tuple = %v score %v", res.Tuples[1].Tuple, res.Tuples[1].Score)
	}
}

func TestExecuteSelectionAndTopK(t *testing.T) {
	e, en := engine(t)
	cur, _ := e.NewState("Athens", "good", "friends")
	// Base selection restricts to open-air POIs; brewery/museum are
	// indoor so only the zoo survives.
	cq := Contextual{Selection: []relation.Predicate{{Col: "open_air", Op: relation.OpEq, Val: relation.B(true)}}}
	res, err := en.Execute(cq, cur)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Tuples {
		if !st.Tuple[3].Bool() {
			t.Errorf("selection leaked indoor tuple %v", st.Tuple)
		}
	}
	// TopK truncation. The best cover of (Athens, good, friends) is
	// (Athens, all, all) at hierarchy distance 2, whose entry is the
	// museum preference at 0.6.
	cq = Contextual{TopK: 1}
	res, err = en.Execute(cq, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("TopK tuples = %v", res.Tuples)
	}
	if res.Tuples[0].Score != 0.6 {
		t.Errorf("top score = %v, want 0.6 (museum)", res.Tuples[0].Score)
	}
	// Selection errors propagate.
	cq = Contextual{Selection: []relation.Predicate{{Col: "bogus", Op: relation.OpEq, Val: relation.S("x")}}}
	if _, err := en.Execute(cq, cur); err == nil {
		t.Error("bad selection should fail")
	}
}

func TestExecuteNonContextualFallback(t *testing.T) {
	e, en := engine(t)
	// (Perama, cold, alone): nothing in the profile covers it except…
	// actually (all,good,all) does not cover cold; brewery needs
	// friends; museum needs Athens. No match → plain query.
	cur, _ := e.NewState("Perama", "cold", "alone")
	res, err := en.Execute(Contextual{}, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contextual {
		t.Fatal("expected non-contextual fallback")
	}
	if len(res.Tuples) != 5 {
		t.Fatalf("fallback should return all tuples, got %d", len(res.Tuples))
	}
	for _, st := range res.Tuples {
		if st.Score != 0 {
			t.Errorf("fallback tuple has score %v", st.Score)
		}
	}
	// Fallback with TopK.
	res, err = en.Execute(Contextual{TopK: 2}, cur)
	if err != nil || len(res.Tuples) != 2 {
		t.Fatalf("fallback TopK = %v, %v", res.Tuples, err)
	}
	// Fallback with selection.
	res, err = en.Execute(Contextual{Selection: []relation.Predicate{{Col: "type", Op: relation.OpEq, Val: relation.S("zoo")}}}, cur)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatalf("fallback selection = %v, %v", res.Tuples, err)
	}
	// No context at all behaves like a plain query too.
	res, err = en.Execute(Contextual{}, nil)
	if err != nil || res.Contextual || len(res.Tuples) != 5 {
		t.Fatalf("no-context execute = %+v, %v", res, err)
	}
}

// TestExecuteFullCtx checks the cache's seam: a contextual answer is
// ranked in full whatever TopK, and the non-contextual fallback is the
// plain selection in tuple order cut to TopK, built without listing the
// relation when there is no selection, and nil when nothing matches.
func TestExecuteFullCtx(t *testing.T) {
	e, en := engine(t)
	ctx := context.Background()
	covered, _ := e.NewState("Plaka", "warm", "friends")
	full, err := en.ExecuteCtx(ctx, Contextual{}, covered)
	if err != nil || !full.Contextual {
		t.Fatalf("contextual Execute = %+v, %v", full, err)
	}
	for _, k := range []int{0, 1, 2} {
		got, err := en.ExecuteFullCtx(ctx, Contextual{TopK: k}, covered)
		if err != nil || !reflect.DeepEqual(got, full) {
			t.Errorf("ExecuteFullCtx top %d = %+v, %v; want the full ranking %+v", k, got, err, full)
		}
	}
	uncovered, _ := e.NewState("Perama", "cold", "alone")
	rel := en.Relation()
	for _, sel := range [][]relation.Predicate{
		nil,
		{{Col: "open_air", Op: relation.OpEq, Val: relation.B(true)}},
		{{Col: "type", Op: relation.OpEq, Val: relation.S("library")}},
	} {
		idxs, err := rel.Select(sel...)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 2, 10} {
			var want []relation.ScoredTuple
			for _, idx := range idxs {
				if k > 0 && len(want) == k {
					break
				}
				want = append(want, relation.ScoredTuple{Index: idx, Tuple: rel.Tuple(idx)})
			}
			cq := Contextual{Selection: sel, TopK: k}
			got, err := en.ExecuteFullCtx(ctx, cq, uncovered)
			if err != nil || got.Contextual || !reflect.DeepEqual(got.Tuples, want) {
				t.Errorf("fallback %v top %d = %+v, %v; want %v", sel, k, got, err, want)
			}
			plain, err := en.ExecuteCtx(ctx, cq, uncovered)
			if err != nil || !reflect.DeepEqual(plain, got) {
				t.Errorf("fallback %v top %d: ExecuteCtx %+v differs from ExecuteFullCtx %+v", sel, k, plain, got)
			}
		}
	}
}

func TestExecuteDuplicateCombining(t *testing.T) {
	e := env(t)
	tr, _ := profiletree.New(e, nil)
	// Two preferences whose clauses both select the brewery tuple.
	tr.Insert(preference.MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("accompanying_people", "friends")),
		clause("type", "brewery"), 0.9))
	tr.Insert(preference.MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("accompanying_people", "friends")),
		clause("name", "Plaka Brewery"), 0.5))
	rel := poiRelation(t)
	cur, _ := e.NewState("Plaka", "warm", "friends")

	enMax, _ := NewEngine(tr, rel, distance.Hierarchy{}, relation.CombineMax)
	res, err := enMax.Execute(Contextual{}, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0].Score != 0.9 {
		t.Fatalf("max combine = %v", res.Tuples)
	}
	enMin, _ := NewEngine(tr, rel, distance.Hierarchy{}, relation.CombineMin)
	res, _ = enMin.Execute(Contextual{}, cur)
	if res.Tuples[0].Score != 0.5 {
		t.Errorf("min combine = %v", res.Tuples[0].Score)
	}
	enAvg, _ := NewEngine(tr, rel, distance.Hierarchy{}, relation.CombineAvg)
	res, _ = enAvg.Execute(Contextual{}, cur)
	if res.Tuples[0].Score != 0.7 {
		t.Errorf("avg combine = %v", res.Tuples[0].Score)
	}
}

func TestEngineOverSequentialStore(t *testing.T) {
	e := env(t)
	sq, _ := profiletree.NewSequential(e)
	prefsTree := loadedTree(t, e)
	for _, p := range prefsTree.Paths() {
		_ = p
	}
	// Load the same preferences into the sequential store.
	prefs := []preference.Preference{
		preference.MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.Eq("temperature", "warm")),
			clause("name", "Acropolis"), 0.8),
		preference.MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("accompanying_people", "friends")),
			clause("type", "brewery"), 0.9),
	}
	for _, p := range prefs {
		if err := sq.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	en, err := NewEngine(sq, poiRelation(t), distance.Hierarchy{}, relation.CombineMax)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := e.NewState("Plaka", "warm", "friends")
	res, err := en.Execute(Contextual{}, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contextual || len(res.Tuples) == 0 {
		t.Fatalf("sequential-store execution failed: %+v", res)
	}
}

func TestExecuteErrorPropagation(t *testing.T) {
	e, en := engine(t)
	_ = e
	// Bad extended descriptor.
	bad := Contextual{Ecod: ctxmodel.ExtendedDescriptor{ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis"))}}
	if _, err := en.Execute(bad, nil); err == nil {
		t.Error("bad ecod should fail")
	}
	// Clause referencing a column absent from the relation.
	e2 := env(t)
	tr, _ := profiletree.New(e2, nil)
	tr.Insert(preference.MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka")),
		clause("nonexistent", "x"), 0.5))
	en2, _ := NewEngine(tr, poiRelation(t), distance.Hierarchy{}, relation.CombineMax)
	cur, _ := e2.NewState("Plaka", "warm", "friends")
	if _, err := en2.Execute(Contextual{}, cur); err == nil {
		t.Error("clause over unknown column should fail")
	}
}
