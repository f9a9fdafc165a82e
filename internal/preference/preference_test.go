package preference

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"contextpref/internal/ctxmodel"
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

func nameEq(v string) Clause {
	return Clause{Attr: "name", Op: relation.OpEq, Val: relation.S(v)}
}

func typeEq(v string) Clause {
	return Clause{Attr: "type", Op: relation.OpEq, Val: relation.S(v)}
}

// Paper Section 3.2: preference 1 — at Plaka when warm, Acropolis 0.8.
func pref1() Preference {
	return MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.Eq("temperature", "warm")),
		nameEq("Acropolis"), 0.8)
}

// Paper preference 2 — with friends, breweries 0.9.
func pref2() Preference {
	return MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("accompanying_people", "friends")),
		typeEq("brewery"), 0.9)
}

// Paper preference 3 — Plaka and temperature ∈ {warm, hot}, Acropolis 0.8.
func pref3() Preference {
	return MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.In("temperature", "warm", "hot")),
		nameEq("Acropolis"), 0.8)
}

func TestClause(t *testing.T) {
	c := nameEq("Acropolis")
	if c.String() != "name = Acropolis" {
		t.Errorf("String = %q", c.String())
	}
	if !c.Equal(nameEq("Acropolis")) {
		t.Error("Equal broken (same)")
	}
	if c.Equal(nameEq("Benaki")) || c.Equal(typeEq("Acropolis")) {
		t.Error("Equal broken (different)")
	}
	if c.Equal(Clause{Attr: "name", Op: relation.OpNe, Val: relation.S("Acropolis")}) {
		t.Error("Equal should compare operators")
	}
	p := c.Predicate()
	if p.Col != "name" || p.Op != relation.OpEq || !p.Val.Equal(relation.S("Acropolis")) {
		t.Errorf("Predicate = %+v", p)
	}
	if c.Key() == typeEq("Acropolis").Key() {
		t.Error("Key collision across attributes")
	}
	// Kind participates in the key: "1" as string vs int.
	k1 := Clause{Attr: "a", Op: relation.OpEq, Val: relation.S("1")}.Key()
	k2 := Clause{Attr: "a", Op: relation.OpEq, Val: relation.I(1)}.Key()
	if k1 == k2 {
		t.Error("Key collision across kinds")
	}
}

func TestNewValidation(t *testing.T) {
	d := ctxmodel.MustDescriptor()
	if _, err := New(d, nameEq("x"), -0.1); err == nil {
		t.Error("negative score should fail")
	}
	if _, err := New(d, nameEq("x"), 1.1); err == nil {
		t.Error("score > 1 should fail")
	}
	if _, err := New(d, Clause{}, 0.5); err == nil {
		t.Error("empty attribute should fail")
	}
	p, err := New(d, nameEq("x"), 0)
	if err != nil || p.Score != 0 {
		t.Errorf("score 0 should be allowed: %v", err)
	}
	if _, err := New(d, nameEq("x"), 1); err != nil {
		t.Errorf("score 1 should be allowed: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid score")
		}
	}()
	MustNew(d, nameEq("x"), 2)
}

func TestPreferenceString(t *testing.T) {
	s := pref1().String()
	for _, frag := range []string{"location = Plaka", "name = Acropolis", "0.80"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String = %q missing %q", s, frag)
		}
	}
}

func TestConflictsDef6(t *testing.T) {
	e := env(t)
	// The paper's example: same clause, overlapping context, scores
	// 0.8 vs 0.3 → conflict.
	a := pref1()
	b := MustNew(a.Descriptor, a.Clause, 0.3)
	got, err := Conflicts(e, a, b)
	if err != nil || !got {
		t.Errorf("Conflicts(same cod, diff score) = %v, %v; want true", got, err)
	}
	// Same score → no conflict.
	got, _ = Conflicts(e, a, MustNew(a.Descriptor, a.Clause, 0.8))
	if got {
		t.Error("same score should not conflict")
	}
	// Different clause → no conflict.
	got, _ = Conflicts(e, a, MustNew(a.Descriptor, nameEq("Benaki"), 0.3))
	if got {
		t.Error("different clause should not conflict")
	}
	// Overlapping but not identical contexts: pref1 (warm) vs pref3
	// (warm|hot) share (Plaka, warm, all).
	got, _ = Conflicts(e, pref1(), MustNew(pref3().Descriptor, nameEq("Acropolis"), 0.2))
	if !got {
		t.Error("overlapping contexts with different scores should conflict")
	}
	// Disjoint contexts → no conflict even with different scores.
	c := MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Kifisia"), ctxmodel.Eq("temperature", "warm")),
		nameEq("Acropolis"), 0.1)
	got, _ = Conflicts(e, pref1(), c)
	if got {
		t.Error("disjoint contexts should not conflict")
	}
	// Bad descriptor propagates an error.
	bad := Preference{Descriptor: ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis")), Clause: nameEq("x"), Score: 0.4}
	if _, err := Conflicts(e, bad, MustNew(ctxmodel.MustDescriptor(), nameEq("x"), 0.5)); err == nil {
		t.Error("invalid descriptor should error")
	}
	if _, err := Conflicts(e, MustNew(ctxmodel.MustDescriptor(), nameEq("x"), 0.5), bad); err == nil {
		t.Error("invalid descriptor (2nd) should error")
	}
}

func TestProfileAdd(t *testing.T) {
	e := env(t)
	pr, err := NewProfile(e)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Env() != e {
		t.Error("Env round-trip failed")
	}
	pr.MustAdd(pref1(), pref2(), pref3())
	if pr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", pr.Len())
	}
	if !pr.Pref(0).Clause.Equal(nameEq("Acropolis")) {
		t.Errorf("Pref(0) = %v", pr.Pref(0))
	}
	if got := len(pr.Preferences()); got != 3 {
		t.Errorf("Preferences() = %d", got)
	}
	if got := len(pr.Descriptors()); got != 3 {
		t.Errorf("Descriptors() = %d", got)
	}
	// Conflict rejected with a ConflictError naming the state.
	err = pr.Add(MustNew(pref1().Descriptor, nameEq("Acropolis"), 0.1))
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("Add conflicting = %v, want ConflictError", err)
	}
	if ce.State.String() != "(Plaka, warm, all)" {
		t.Errorf("conflict state = %v", ce.State)
	}
	if !strings.Contains(ce.Error(), "conflict") {
		t.Errorf("Error() = %q", ce.Error())
	}
	if pr.Len() != 3 {
		t.Error("conflicting Add mutated the profile")
	}
	// Invalid descriptor rejected.
	if err := pr.Add(Preference{
		Descriptor: ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Atlantis")),
		Clause:     nameEq("x"), Score: 0.5,
	}); err == nil {
		t.Error("Add with invalid descriptor should fail")
	}
	// Nil environment.
	if _, err := NewProfile(nil); err == nil {
		t.Error("NewProfile(nil) should fail")
	}
	// MustAdd panics on conflict.
	defer func() {
		if recover() == nil {
			t.Error("MustAdd should panic on conflict")
		}
	}()
	pr.MustAdd(MustNew(pref1().Descriptor, nameEq("Acropolis"), 0.1))
}

func TestProfileAddSameScoreOverlap(t *testing.T) {
	e := env(t)
	pr, _ := NewProfile(e)
	pr.MustAdd(pref1())
	// pref3 overlaps pref1 on (Plaka, warm, all) with the SAME clause
	// and SAME score: allowed by Def. 6.
	if err := pr.Add(pref3()); err != nil {
		t.Fatalf("same-score overlap rejected: %v", err)
	}
	if pr.Len() != 2 {
		t.Errorf("Len = %d, want 2", pr.Len())
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	e := env(t)
	prefs := []Preference{
		pref1(),
		pref2(),
		pref3(),
		MustNew(ctxmodel.MustDescriptor(), typeEq("museum"), 0.5),
		MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Between("temperature", "mild", "hot")),
			Clause{Attr: "admission_cost", Op: relation.OpLe, Val: relation.F(10)}, 0.75),
		MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Athens")),
			Clause{Attr: "open_air", Op: relation.OpEq, Val: relation.B(true)}, 0.6),
		MustNew(
			ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Athens")),
			Clause{Attr: "pid", Op: relation.OpNe, Val: relation.I(3)}, 0.2),
	}
	for _, p := range prefs {
		line := Format(p)
		q, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if !q.Clause.Equal(p.Clause) || q.Score != p.Score {
			t.Errorf("round-trip mismatch: %v -> %q -> %v", p, line, q)
		}
		// Descriptor equivalence via expansion.
		sp, err1 := p.Descriptor.Context(e)
		sq, err2 := q.Descriptor.Context(e)
		if err1 != nil || err2 != nil || len(sp) != len(sq) {
			t.Fatalf("descriptor expansion mismatch for %q", line)
		}
		for i := range sp {
			if !sp[i].Equal(sq[i]) {
				t.Errorf("state %d mismatch: %v vs %v", i, sp[i], sq[i])
			}
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"",
		"location = Plaka => name = x : 0.5",    // missing [
		"[location = Plaka => name = x : 0.5",   // missing ]
		"[location = Plaka] name = x : 0.5",     // missing =>
		"[location = Plaka] => name = x",        // missing score
		"[location = Plaka] => name = x : high", // bad score
		"[location Plaka] => name = x : 0.5",    // bad atom
		"[location = Plaka] => name x : 0.5",    // no operator
		"[location in Plaka] => name = x : 0.5", // malformed in
		"[location in {}] => name = x : 0.5",    // empty in
		"[t between mild] => name = x : 0.5",    // one endpoint
		"[t between mild,] => name = x : 0.5",   // empty endpoint
		"[= Plaka] => name = x : 0.5",           // empty param
		"[location = Plaka] => name = x : 1.5",  // out-of-range score
		"[location = Plaka] => = x : 0.5",       // empty attr
		`[location = Plaka] => name = "x : 0.5`, // unterminated quote
		"[p = v; p = w] => name = x : 0.5",      // repeated parameter
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) should fail", line)
		}
	}
}

func TestInferValue(t *testing.T) {
	cases := []struct {
		text string
		want relation.Value
	}{
		{`"quoted string"`, relation.S("quoted string")},
		{"true", relation.B(true)},
		{"false", relation.B(false)},
		{"42", relation.I(42)},
		{"-7", relation.I(-7)},
		{"2.5", relation.F(2.5)},
		{"barewood", relation.S("barewood")},
	}
	for _, c := range cases {
		got, err := InferValue(c.text)
		if err != nil || !got.Equal(c.want) {
			t.Errorf("InferValue(%q) = %v (%v), %v; want %v (%v)",
				c.text, got, got.Kind(), err, c.want, c.want.Kind())
		}
	}
	if _, err := InferValue(""); err == nil {
		t.Error("empty value should fail")
	}
	if _, err := InferValue(`"broken`); err == nil {
		t.Error("unterminated quote should fail")
	}
}

func TestFormatParseProfile(t *testing.T) {
	e := env(t)
	pr, _ := NewProfile(e)
	pr.MustAdd(pref1(), pref2())
	text := FormatProfile(pr)
	if got := strings.Count(text, "\n"); got != 2 {
		t.Errorf("FormatProfile lines = %d, want 2", got)
	}
	// Round-trip with comments and blanks.
	annotated := "# a comment\n\n" + text + "\n"
	back, err := ParseProfile(e, annotated)
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if back.Len() != 2 {
		t.Errorf("parsed profile Len = %d, want 2", back.Len())
	}
	// Errors carry line numbers.
	if _, err := ParseProfile(e, "garbage line"); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("ParseProfile error = %v, want line number", err)
	}
	// Conflicts inside the text are rejected.
	conflict := Format(pref1()) + "\n" + Format(MustNew(pref1().Descriptor, nameEq("Acropolis"), 0.1))
	if _, err := ParseProfile(e, conflict); err == nil {
		t.Error("conflicting profile text should fail")
	}
	// Unknown context values are rejected on Add.
	if _, err := ParseProfile(e, "[location = Atlantis] => name = x : 0.5"); err == nil {
		t.Error("unknown value should fail")
	}
}

// TestProfileAddReportsEarliestConflict pins which Existing and State a
// conflict reports when several stored preferences overlap the new
// one: the earliest conflicting preference in insertion order, and the
// first shared state in that preference's own expansion order (not the
// new preference's).
func TestProfileAddReportsEarliestConflict(t *testing.T) {
	e := env(t)
	pr, _ := NewProfile(e)
	plakaHotWarm := MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.In("temperature", "hot", "warm")),
		nameEq("Acropolis"), 0.8)
	pr.MustAdd(
		// Disjoint from the new preference.
		MustNew(ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Kifisia")), nameEq("Acropolis"), 0.5),
		// Overlapping, but another clause.
		MustNew(ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.Eq("temperature", "warm")),
			typeEq("museum"), 0.2),
		plakaHotWarm,
		// Overlaps on (Plaka, hot, all) too, with plakaHotWarm's score.
		MustNew(ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.Eq("temperature", "hot")),
			nameEq("Acropolis"), 0.8),
	)
	newPref := MustNew(
		ctxmodel.MustDescriptor(ctxmodel.Eq("location", "Plaka"), ctxmodel.In("temperature", "warm", "hot")),
		nameEq("Acropolis"), 0.1)
	var ce *ConflictError
	if err := pr.Add(newPref); !errors.As(err, &ce) {
		t.Fatalf("Add = %v, want *ConflictError", err)
	}
	if ce.Existing.String() != plakaHotWarm.String() {
		t.Errorf("Existing = %v, want %v", ce.Existing, plakaHotWarm)
	}
	if got := ce.State.String(); got != "(Plaka, hot, all)" {
		t.Errorf("State = %s, want (Plaka, hot, all)", got)
	}
	// The same answer after the pair index is dropped and rebuilt.
	pr.seen = nil
	var again *ConflictError
	if err := pr.Add(newPref); !errors.As(err, &again) || again.Existing.String() != ce.Existing.String() ||
		again.State.Key() != ce.State.Key() {
		t.Errorf("after an index rebuild Add = %v, want %v", again, ce)
	}
}

// quadraticAdd is the reference Def. 6 check Profile.Add replaced: every
// earlier same-clause preference in insertion order is re-expanded and
// scanned for a state shared with p.
func quadraticAdd(e *ctxmodel.Environment, prefs []Preference, p Preference) (*ConflictError, error) {
	states, err := p.Descriptor.Context(e)
	if err != nil {
		return nil, err
	}
	newKeys := make(map[string]bool, len(states))
	for _, s := range states {
		newKeys[s.Key()] = true
	}
	for _, q := range prefs {
		if !q.Clause.Equal(p.Clause) {
			continue
		}
		qs, err := q.Descriptor.Context(e)
		if err != nil {
			return nil, err
		}
		for _, s := range qs {
			if newKeys[s.Key()] {
				if q.Score == p.Score {
					break
				}
				return &ConflictError{New: p, Existing: q, State: s}, nil
			}
		}
	}
	return nil, nil
}

// TestProfileAddMatchesQuadraticReference: over seeded random
// preferences — eq, in and upper-level values, few clauses and scores
// so overlaps and conflicts are frequent — the indexed Add accepts and
// rejects exactly what the quadratic scan does, and reports the same
// Existing and State.
func TestProfileAddMatchesQuadraticReference(t *testing.T) {
	e := env(t)
	rng := rand.New(rand.NewSource(7))
	pick := func(vals []string) string { return vals[rng.Intn(len(vals))] }
	randomPref := func() Preference {
		var pds []ctxmodel.ParamDescriptor
		for i := 0; i < e.NumParams(); i++ {
			h := e.Param(i).Hierarchy()
			name := e.Param(i).Name()
			switch rng.Intn(4) {
			case 0: // unconstrained
			case 1:
				pds = append(pds, ctxmodel.Eq(name, pick(h.ValuesAt(rng.Intn(h.NumLevels()-1)))))
			default:
				a, b := pick(h.DetailedValues()), pick(h.DetailedValues())
				if a == b {
					pds = append(pds, ctxmodel.Eq(name, a))
				} else {
					pds = append(pds, ctxmodel.In(name, a, b))
				}
			}
		}
		clause := nameEq([]string{"Acropolis", "Benaki"}[rng.Intn(2)])
		return MustNew(ctxmodel.MustDescriptor(pds...), clause, []float64{0.2, 0.5, 0.8}[rng.Intn(3)])
	}
	conflicts := 0
	for round := 0; round < 20; round++ {
		pr, _ := NewProfile(e)
		for i := 0; i < 60; i++ {
			p := randomPref()
			want, err := quadraticAdd(e, pr.Preferences(), p)
			if err != nil {
				t.Fatal(err)
			}
			err = pr.Add(p)
			if want == nil {
				if err != nil {
					t.Fatalf("round %d add %d: Add(%v) = %v, reference accepts", round, i, p, err)
				}
				continue
			}
			conflicts++
			var got *ConflictError
			if !errors.As(err, &got) {
				t.Fatalf("round %d add %d: Add(%v) = %v, reference reports %v", round, i, p, err, want)
			}
			if got.Existing.String() != want.Existing.String() || got.State.Key() != want.State.Key() {
				t.Fatalf("round %d add %d: conflict (%v on %s), reference (%v on %s)",
					round, i, got.Existing, got.State, want.Existing, want.State)
			}
		}
	}
	if conflicts < 100 {
		t.Errorf("only %d of 1200 adds conflicted; the generator no longer exercises the check", conflicts)
	}
	t.Logf("%d of 1200 adds conflicted", conflicts)
}
