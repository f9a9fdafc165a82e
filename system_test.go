package contextpref

import (
	"errors"
	"strings"
	"testing"
)

// buildPOIs creates the running-example relation.
func buildPOIs(t *testing.T) *Relation {
	t.Helper()
	schema, err := NewSchema("points_of_interest",
		Column{Name: "pid", Kind: KindInt},
		Column{Name: "name", Kind: KindString},
		Column{Name: "type", Kind: KindString},
		Column{Name: "open_air", Kind: KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelation(schema)
	rows := []struct {
		pid     int64
		name    string
		typ     string
		openAir bool
	}{
		{1, "Acropolis", "monument", true},
		{2, "Benaki Museum", "museum", false},
		{3, "Plaka Brewery", "brewery", false},
		{4, "Mikro Cafe", "cafeteria", true},
		{5, "National Garden", "park", true},
	}
	for _, r := range rows {
		if _, err := rel.Insert(Int(r.pid), String(r.name), String(r.typ), Bool(r.openAir)); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func newSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	env, err := ReferenceEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(env, buildPOIs(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// newSafeSystem is newSystem as a user of a one-shard directory, the
// way every SafeSystem is made.
func newSafeSystem(t *testing.T, opts ...Option) *SafeSystem {
	t.Helper()
	env, err := ReferenceEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDirectory(env, buildPOIs(t), WithSystemOptions(opts...))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := d.User("u")
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func paperPreferences() []Preference {
	return []Preference{
		MustPreference(
			MustDescriptor(Eq("location", "Plaka"), Eq("temperature", "warm")),
			Clause{Attr: "name", Op: OpEq, Val: String("Acropolis")}, 0.8),
		MustPreference(
			MustDescriptor(Eq("accompanying_people", "friends")),
			Clause{Attr: "type", Op: OpEq, Val: String("brewery")}, 0.9),
		MustPreference(
			MustDescriptor(Between("temperature", "mild", "hot")),
			Clause{Attr: "type", Op: OpEq, Val: String("park")}, 0.6),
	}
}

func TestNewSystemValidation(t *testing.T) {
	env, _ := ReferenceEnvironment()
	if _, err := NewSystem(nil, buildPOIs(t)); err == nil {
		t.Error("nil environment should fail")
	}
	if _, err := NewSystem(env, nil); err == nil {
		t.Error("nil relation should fail")
	}
	if _, err := NewSystem(env, buildPOIs(t), WithTreeOrder([]int{0})); err == nil {
		t.Error("bad tree order should fail")
	}
	sys, err := NewSystem(env, buildPOIs(t),
		WithMetric(HierarchyDistance{}),
		WithCombiner(CombineAvg),
		WithTreeOrder([]int{2, 1, 0}),
		WithQueryCache(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Env() != env || sys.Relation() == nil || sys.Tree() == nil {
		t.Error("accessors broken")
	}
	if sys.Metric().Name() != "hierarchy" {
		t.Errorf("metric = %q", sys.Metric().Name())
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys := newSystem(t)
	if err := sys.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	if sys.NumPreferences() != 3 {
		t.Errorf("NumPreferences = %d", sys.NumPreferences())
	}
	// Current context (Plaka, warm, friends): the closest stored state
	// under Jaccard is (Plaka, warm, all) — dist 2/3 versus 2*16/17ish
	// for (all, all, friends) — so the Acropolis preference applies
	// (Rank_CS uses the single most relevant state, Def. 12).
	cur, err := sys.NewState("Plaka", "warm", "friends")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(Query{}, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contextual {
		t.Fatal("expected contextual execution")
	}
	if len(res.Tuples) == 0 {
		t.Fatal("no results")
	}
	if got := res.Tuples[0].Tuple[1].Str(); got != "Acropolis" {
		t.Errorf("top result = %q, want Acropolis", got)
	}
	if res.Tuples[0].Score != 0.8 {
		t.Errorf("top score = %v, want 0.8", res.Tuples[0].Score)
	}
	// Resolution explains the match.
	if len(res.Resolutions) != 1 || !res.Resolutions[0].Found {
		t.Errorf("resolutions = %+v", res.Resolutions)
	}
	// Direct resolution API.
	cand, ok, err := sys.Resolve(cur)
	if err != nil || !ok {
		t.Fatalf("Resolve: %v, %v", ok, err)
	}
	if len(cand.Entries) == 0 {
		t.Error("Resolve returned no entries")
	}
	// Stats reflect the inserted profile.
	st := sys.Stats()
	if st.Preferences != 3 || st.States == 0 || st.Cells == 0 || st.Bytes == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestSystemExploratoryQuery(t *testing.T) {
	sys := newSystem(t)
	if err := sys.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	// "When I travel to Athens with my family in good weather ...":
	// none of the stored states covers (Athens, good, family) — the
	// park states sit at the detailed Conditions level, which cannot
	// cover "good" — so the query falls back to a plain selection
	// (Section 4.2).
	q := Query{
		Ecod: ExtendedDescriptor{
			MustDescriptor(Eq("location", "Athens"), Eq("temperature", "good"),
				Eq("accompanying_people", "family")),
		},
		TopK: 10,
	}
	res, err := sys.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contextual {
		t.Fatal("expected non-contextual fallback for an uncovered state")
	}
	// A hypothetical context the profile does cover: "what if I visit
	// Plaka with my family on a warm day?" — the Acropolis preference's
	// state (Plaka, warm, all) covers it.
	q = Query{
		Ecod: ExtendedDescriptor{
			MustDescriptor(Eq("location", "Plaka"), Eq("temperature", "warm"),
				Eq("accompanying_people", "family")),
		},
	}
	res, err = sys.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contextual || len(res.Tuples) == 0 {
		t.Fatalf("exploratory query failed: %+v", res)
	}
	if got := res.Tuples[0].Tuple[1].Str(); got != "Acropolis" {
		t.Errorf("top result = %q, want Acropolis", got)
	}
}

func TestSystemConflictSurface(t *testing.T) {
	sys := newSystem(t)
	if err := sys.AddPreference(paperPreferences()[0]); err != nil {
		t.Fatal(err)
	}
	conflicting := MustPreference(
		paperPreferences()[0].Descriptor,
		Clause{Attr: "name", Op: OpEq, Val: String("Acropolis")}, 0.2)
	err := sys.AddPreference(conflicting)
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("AddPreference = %v, want ConflictError", err)
	}
	// Batch insertion reports the failing index.
	err = sys.AddPreferences(paperPreferences()[1], conflicting)
	if err == nil || !strings.Contains(err.Error(), "preference 1") {
		t.Errorf("AddPreferences error = %v", err)
	}
}

func TestSystemProfileRoundTrip(t *testing.T) {
	sys := newSystem(t)
	text := `
# paper profile
[location = Plaka; temperature = warm] => name = "Acropolis" : 0.8
[accompanying_people = friends] => type = brewery : 0.9
`
	if err := sys.LoadProfile(text); err != nil {
		t.Fatal(err)
	}
	if sys.NumPreferences() != 2 {
		t.Errorf("NumPreferences = %d", sys.NumPreferences())
	}
	if err := sys.LoadProfile("garbage"); err == nil {
		t.Error("bad profile text should fail")
	}
	// Format round-trip of a preference.
	line := FormatPreference(paperPreferences()[1])
	p, err := ParsePreference(line)
	if err != nil || p.Score != 0.9 {
		t.Errorf("ParsePreference(%q) = %v, %v", line, p, err)
	}
	// Profile construction via the facade.
	env := sys.Env()
	pr, err := NewProfile(env)
	if err != nil {
		t.Fatal(err)
	}
	pr.MustAdd(paperPreferences()[2])
	if err := sys.AddProfile(pr); err != nil {
		t.Fatal(err)
	}
	if sys.NumPreferences() != 3 {
		t.Errorf("NumPreferences after AddProfile = %d", sys.NumPreferences())
	}
}

func TestSystemQueryCache(t *testing.T) {
	sys := newSystem(t, WithQueryCache(0))
	if err := sys.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	cur, _ := sys.NewState("Plaka", "warm", "friends")
	res1, hit, err := sys.QueryCached(Query{}, cur)
	if err != nil || hit {
		t.Fatalf("first query hit=%v err=%v", hit, err)
	}
	res2, hit, err := sys.QueryCached(Query{}, cur)
	if err != nil || !hit {
		t.Fatalf("second query hit=%v err=%v", hit, err)
	}
	if len(res1.Tuples) != len(res2.Tuples) {
		t.Errorf("cached answer differs: %d vs %d", len(res1.Tuples), len(res2.Tuples))
	}
	if sys.CacheStats().Hits != 1 {
		t.Errorf("CacheStats = %+v", sys.CacheStats())
	}
	// Adding a preference invalidates the cache.
	if err := sys.AddPreference(MustPreference(
		MustDescriptor(Eq("location", "Kifisia")),
		Clause{Attr: "type", Op: OpEq, Val: String("cafeteria")}, 0.7)); err != nil {
		t.Fatal(err)
	}
	_, hit, err = sys.QueryCached(Query{}, cur)
	if err != nil || hit {
		t.Error("cache should be invalidated after AddPreference")
	}
	// The plain Query path also works with a cache.
	if _, err := sys.Query(Query{}, cur); err != nil {
		t.Fatal(err)
	}
	// Without a cache, QueryCached reports no hit and CacheStats is
	// zero.
	plain := newSystem(t)
	plain.AddPreferences(paperPreferences()...)
	_, hit, err = plain.QueryCached(Query{}, cur)
	if err != nil || hit {
		t.Errorf("no-cache QueryCached hit=%v err=%v", hit, err)
	}
	if plain.CacheStats() != (CacheStats{}) {
		t.Errorf("no-cache CacheStats = %+v", plain.CacheStats())
	}
}

func TestSystemResolveAll(t *testing.T) {
	sys := newSystem(t)
	if err := sys.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	cur, _ := sys.NewState("Plaka", "warm", "friends")
	cands, err := sys.ResolveAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	// Covering states: (Plaka, warm, all) [Acropolis], (all, all,
	// friends) [brewery], (all, warm, all) [park].
	if len(cands) != 3 {
		t.Fatalf("candidates = %d: %v", len(cands), cands)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Distance > cands[i].Distance {
			t.Errorf("candidates not sorted: %v then %v", cands[i-1].Distance, cands[i].Distance)
		}
	}
	if !cands[0].State.Equal(ctxmodel2State("Plaka", "warm", "all")) {
		t.Errorf("best candidate = %v", cands[0].State)
	}
	// Uncovered state yields an empty list.
	far, _ := sys.NewState("Perama", "cold", "alone")
	cands, err = sys.ResolveAll(far)
	if err != nil || len(cands) != 0 {
		t.Errorf("ResolveAll(uncovered) = %v, %v", cands, err)
	}
}

// ctxmodel2State builds a state literal for assertions.
func ctxmodel2State(vs ...string) State { return State(vs) }

func TestSystemExportProfile(t *testing.T) {
	sys := newSystem(t)
	if err := sys.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	text, err := sys.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip into a fresh system preserves resolution behaviour.
	sys2 := newSystem(t)
	if err := sys2.LoadProfile(text); err != nil {
		t.Fatalf("LoadProfile(exported): %v\n%s", err, text)
	}
	if sys2.Tree().NumPaths() != sys.Tree().NumPaths() {
		t.Errorf("paths = %d, want %d", sys2.Tree().NumPaths(), sys.Tree().NumPaths())
	}
	cur, _ := sys.NewState("Plaka", "warm", "friends")
	a, okA, _ := sys.Resolve(cur)
	b, okB, _ := sys2.Resolve(cur)
	if okA != okB || !a.State.Equal(b.State) {
		t.Errorf("resolution differs after round-trip: %v vs %v", a.State, b.State)
	}
}

func TestSuggestTreeOrderFacade(t *testing.T) {
	env, _ := ReferenceEnvironment()
	prefs := paperPreferences()
	order, err := SuggestTreeOrder(env, prefs)
	if err != nil || len(order) != 3 {
		t.Fatalf("SuggestTreeOrder = %v, %v", order, err)
	}
	// The suggestion plugs into WithTreeOrder.
	sys, err := NewSystem(env, buildPOIs(t), WithTreeOrder(order))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPreferences(prefs...); err != nil {
		t.Fatal(err)
	}
}

func TestSystemFallback(t *testing.T) {
	sys := newSystem(t)
	if err := sys.AddPreference(paperPreferences()[0]); err != nil {
		t.Fatal(err)
	}
	// Nothing covers (Perama, cold, alone) → plain selection.
	cur, _ := sys.NewState("Perama", "cold", "alone")
	res, err := sys.Query(Query{}, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Contextual {
		t.Error("expected non-contextual fallback")
	}
	if len(res.Tuples) != sys.Relation().Len() {
		t.Errorf("fallback tuples = %d", len(res.Tuples))
	}
}

func TestFacadeConstructors(t *testing.T) {
	// Hierarchy via the facade builder.
	h, err := NewHierarchy("mood", "Level").Add("happy").Add("sad").Build()
	if err != nil || h.NumLevels() != 2 {
		t.Fatalf("NewHierarchy: %v, %v", h, err)
	}
	u, err := UniformHierarchy("u", 3, 2)
	if err != nil || len(u.DetailedValues()) != 6 {
		t.Fatalf("UniformHierarchy: %v", err)
	}
	p, err := NewParameter("mood", h)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvironment(p)
	if err != nil {
		t.Fatal(err)
	}
	if env.NumParams() != 1 {
		t.Error("environment wrong")
	}
	// Descriptors.
	d, err := NewDescriptor(Eq("mood", "happy"))
	if err != nil {
		t.Fatal(err)
	}
	states, err := d.Context(env)
	if err != nil || len(states) != 1 || states[0][0] != "happy" {
		t.Fatalf("descriptor context = %v, %v", states, err)
	}
	if _, err := NewDescriptor(Eq("m", "x"), Eq("m", "y")); err == nil {
		t.Error("duplicate param should fail")
	}
	// In/Between forms.
	if _, err := In("mood", "happy", "sad").Context(env); err != nil {
		t.Errorf("In: %v", err)
	}
	if _, err := Between("mood", "happy", "sad").Context(env); err != nil {
		t.Errorf("Between: %v", err)
	}
	// Metric lookup.
	m, err := MetricByName("jaccard")
	if err != nil || m.Name() != "jaccard" {
		t.Errorf("MetricByName: %v, %v", m, err)
	}
	if _, err := MetricByName("nope"); err == nil {
		t.Error("unknown metric should fail")
	}
	// Preference validation via facade.
	if _, err := NewPreference(d, Clause{Attr: "a", Op: OpEq, Val: String("b")}, 2); err == nil {
		t.Error("bad score should fail")
	}
	// Profile tree via facade.
	tr, err := NewProfileTree(env, nil)
	if err != nil || tr.NumCells() != 0 {
		t.Fatalf("NewProfileTree: %v", err)
	}
	if All != "all" {
		t.Error("All constant wrong")
	}
}

func TestQualitativeFacade(t *testing.T) {
	env, _ := ReferenceEnvironment()
	rel := buildPOIs(t)
	p, err := NewQualitativeProfile(env)
	if err != nil {
		t.Fatal(err)
	}
	typeEq := func(v string) Clause {
		return Clause{Attr: "type", Op: OpEq, Val: String(v)}
	}
	err = p.Add(QualitativeRule{
		Descriptor: MustDescriptor(Eq("accompanying_people", "family")),
		Better:     typeEq("museum"), Worse: typeEq("brewery"),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := MetricByName("jaccard")
	cur, _ := env.NewState("Plaka", "warm", "family")
	res, err := QualitativeQuery(p, rel, cur, m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contextual || len(res.Levels) != 2 {
		t.Fatalf("result = %+v", res)
	}
	// The brewery tuple (index 2) is dominated.
	for _, i := range res.Best {
		if rel.Tuple(i)[2].Str() == "brewery" {
			t.Error("dominated brewery in winnow result")
		}
	}
	// Direct Winnow through the facade.
	best, err := Winnow(rel, []QualitativeRule{{
		Better: typeEq("museum"), Worse: typeEq("brewery"),
	}}, nil)
	if err != nil || len(best) != rel.Len()-1 {
		t.Errorf("Winnow = %v, %v", best, err)
	}
}

func TestParseFormatQueryFacade(t *testing.T) {
	cq, err := ParseQuery("top 5 where type = museum context location = Athens")
	if err != nil {
		t.Fatal(err)
	}
	if cq.TopK != 5 || len(cq.Selection) != 1 || len(cq.Ecod) != 1 {
		t.Errorf("ParseQuery = %+v", cq)
	}
	text := FormatQuery(cq)
	back, err := ParseQuery(text)
	if err != nil || back.TopK != 5 {
		t.Errorf("FormatQuery round-trip: %q, %v", text, err)
	}
	if _, err := ParseQuery("nonsense"); err == nil {
		t.Error("bad query should fail")
	}
	// Parsed queries execute against a System.
	sys := newSystem(t)
	if err := sys.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	cq, _ = ParseQuery("top 3 context location = Plaka; temperature = warm")
	res, err := sys.Query(cq, nil)
	if err != nil || !res.Contextual {
		t.Fatalf("executing parsed query: %+v, %v", res, err)
	}
}

func TestSystemRemovePreference(t *testing.T) {
	sys := newSystem(t, WithQueryCache(0))
	if err := sys.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	cur, _ := sys.NewState("Plaka", "warm", "friends")
	if _, err := sys.Query(Query{}, cur); err != nil {
		t.Fatal(err)
	}
	// Remove the Acropolis preference; the cached result must go too.
	removed, err := sys.RemovePreference(paperPreferences()[0])
	if err != nil || removed != 1 {
		t.Fatalf("RemovePreference = %d, %v", removed, err)
	}
	if sys.NumPreferences() != 2 {
		t.Errorf("NumPreferences = %d", sys.NumPreferences())
	}
	res, hit, err := sys.QueryCached(Query{}, cur)
	if err != nil || hit {
		t.Fatalf("stale cache served after removal: hit=%v err=%v", hit, err)
	}
	for _, tp := range res.Tuples {
		if tp.Tuple[1].Str() == "Acropolis" && tp.Score == 0.8 {
			t.Error("removed preference still scoring")
		}
	}
	// Removing again is a no-op and does not invalidate.
	removed, err = sys.RemovePreference(paperPreferences()[0])
	if err != nil || removed != 0 {
		t.Errorf("second remove = %d, %v", removed, err)
	}
	// Errors propagate.
	bad := Preference{Descriptor: MustDescriptor(Eq("location", "Atlantis")),
		Clause: Clause{Attr: "a", Op: OpEq, Val: String("b")}, Score: 0.5}
	if _, err := sys.RemovePreference(bad); err == nil {
		t.Error("bad descriptor should fail")
	}
	// SafeSystem wrapper.
	safe := newSafeSystem(t)
	if err := safe.AddPreferences(paperPreferences()...); err != nil {
		t.Fatal(err)
	}
	if removed, err := safe.RemovePreference(paperPreferences()[1]); err != nil || removed != 1 {
		t.Errorf("safe remove = %d, %v", removed, err)
	}
}
