package contextpref

// TestLoadProfileMatchesReference pins LoadProfile's one-check write
// path to the call order it replaced: ParseProfile (syntax, descriptor
// validity and Def. 6 between the text's lines), the health gate, the
// tree's CheckInsert against the stored profile, the journal write and
// InsertAll. Both run over the same components, so the test isolates
// the order and the number of checks: every case must give the same
// error, the same stored profile and the same journal records.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"contextpref/internal/dataset"
	"contextpref/internal/journal"
	"contextpref/internal/preference"
)

// referenceLoadProfile is LoadProfileCtx as it was: the whole text
// checked by ParseProfile, then AddPreferencesCtx's gate, CheckInsert,
// persist and InsertAll, each preference checked three times.
func referenceLoadProfile(s *System, text string) error {
	pr, err := preference.ParseProfile(s.env, text)
	if err != nil {
		return err
	}
	ps := pr.Preferences()
	if len(ps) == 0 {
		return nil
	}
	if err := s.health.Gate(); err != nil {
		return err
	}
	if err := s.tree.CheckInsert(ps...); err != nil {
		return err
	}
	if s.persist != nil {
		if err := s.persist.PersistAdd(context.Background(), s.persistUser, ps...); err != nil {
			return s.health.fail(&PersistError{Op: "add", Err: err})
		}
	}
	if err := s.tree.InsertAll(ps...); err != nil {
		return err
	}
	if s.cache != nil {
		s.cache.Invalidate()
	}
	return nil
}

// recordingPersister keeps the journal records a JournalPersister would
// append, or fails every write with failWith.
type recordingPersister struct {
	recs     []journal.Record
	failWith error
}

func (p *recordingPersister) PersistCreateUser(_ context.Context, user string) error {
	return p.write(journal.Record{Op: journal.OpUser, User: user})
}

func (p *recordingPersister) PersistAdd(_ context.Context, user string, ps ...Preference) error {
	recs := make([]journal.Record, len(ps))
	for i, q := range ps {
		recs[i] = journal.Record{Op: journal.OpAdd, User: user, Line: FormatPreference(q)}
	}
	return p.write(recs...)
}

func (p *recordingPersister) PersistRemove(_ context.Context, user string, q Preference) error {
	return p.write(journal.Record{Op: journal.OpRemove, User: user, Line: FormatPreference(q)})
}

func (p *recordingPersister) PersistDropUser(_ context.Context, user string) error {
	return p.write(journal.Record{Op: journal.OpDrop, User: user})
}

func (p *recordingPersister) write(recs ...journal.Record) error {
	if p.failWith != nil {
		return p.failWith
	}
	p.recs = append(p.recs, recs...)
	return nil
}

// loadCase is one upload: the text, the profile stored before it, and
// the state of the store it lands in.
type loadCase struct {
	name     string
	stored   string // loaded, and journaled, before the upload
	text     string
	degraded bool // the health gate refuses mutations
	failing  bool // the persister fails every write
}

// run loads c.text into a fresh system through load and reports what
// the upload left behind.
func (c loadCase) run(t *testing.T, env *Environment, rel *Relation, load func(*System, string) error) (error, string, []journal.Record) {
	t.Helper()
	sys, err := NewSystem(env, rel, WithQueryCache(16))
	if err != nil {
		t.Fatal(err)
	}
	per := &recordingPersister{}
	sys.SetPersister(per, "u")
	health := NewShardHealth(0)
	sys.SetHealth(health)
	if err := sys.LoadProfile(c.stored); err != nil {
		t.Fatalf("%s: stored profile: %v", c.name, err)
	}
	if c.degraded {
		health.MarkDegraded(errors.New("disk full"))
	}
	if c.failing {
		per.failWith = errors.New("write failed")
	}
	loadErr := load(sys, c.text)
	export, err := sys.ExportProfile()
	if err != nil {
		t.Fatal(err)
	}
	return loadErr, export, per.recs
}

// errorClass names the typed error a status code is derived from. A
// failed write degrades the store, so its error is both a
// *DegradedError and a *PersistError; the gate's refusal is only the
// former.
func errorClass(err error) string {
	var conflict *ConflictError
	var degraded *DegradedError
	var persist *PersistError
	switch {
	case err == nil:
		return "none"
	case errors.As(err, &conflict):
		return "conflict"
	case errors.As(err, &persist):
		return "persist"
	case errors.As(err, &degraded):
		return "degraded"
	}
	return "other"
}

func TestLoadProfileMatchesReference(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := fixedLoadCases()
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		cases = append(cases, randomLoadCase(t, env, rng, i))
	}
	kinds := map[string]int{}
	for _, c := range cases {
		gotErr, gotExport, gotRecs := c.run(t, env, rel, (*System).LoadProfile)
		wantErr, wantExport, wantRecs := c.run(t, env, rel, referenceLoadProfile)
		kinds[errorClass(wantErr)]++
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errorClass(gotErr) != errorClass(wantErr) {
			t.Errorf("%s: LoadProfile error\n got %v (%s)\nwant %v (%s)\ntext:\n%s",
				c.name, gotErr, errorClass(gotErr), wantErr, errorClass(wantErr), c.text)
			continue
		}
		if gotExport != wantExport {
			t.Errorf("%s: stored profile differs\n got:\n%s\nwant:\n%s", c.name, gotExport, wantExport)
		}
		if fmt.Sprint(gotRecs) != fmt.Sprint(wantRecs) {
			t.Errorf("%s: journal records differ\n got %v\nwant %v", c.name, gotRecs, wantRecs)
		}
	}
	// The generator must reach every outcome, or the comparison proves
	// less than it claims.
	t.Logf("%d cases by outcome: %v", len(cases), kinds)
	for _, k := range []string{"none", "conflict", "degraded", "persist", "other"} {
		if kinds[k] == 0 {
			t.Errorf("no case ended in outcome %q (%v)", k, kinds)
		}
	}
}

// fixedLoadCases are the hand-picked edges: each check's own failure,
// and the pairs whose order the one-check path must reproduce.
func fixedLoadCases() []loadCase {
	const (
		a   = `[accompanying_people = friends] => type = "brewery" : 0.9`
		b   = `[time = t01] => type = "museum" : 0.8`
		bX  = `[time in {t01, t02}] => type = "museum" : 0.3` // conflicts with b
		bad = `[time = t99] => type = "museum" : 0.8`         // unknown value
	)
	return []loadCase{
		{name: "empty", text: ""},
		{name: "comments only", text: "# nothing\n\n  # still nothing\n"},
		{name: "empty while degraded", text: "# nothing\n", degraded: true},
		{name: "valid", text: a + "\n" + b + "\n"},
		{name: "same-score duplicate", text: a + "\n" + a + "\n"},
		{name: "conflict in text", text: a + "\n" + b + "\n" + bX + "\n"},
		{name: "conflict with stored", stored: b, text: a + "\n" + bX + "\n"},
		{name: "stored conflict before text conflict", stored: b, text: bX + "\n" + a + "\n" + strings.Replace(a, "0.9", "0.1", 1)},
		{name: "unknown value", text: a + "\n" + bad + "\n"},
		{name: "unknown value before malformed", text: a + "\n" + bad + "\ngarbage\n"},
		{name: "malformed before unknown value", text: "garbage\n" + bad + "\n"},
		{name: "text conflict before malformed", text: b + "\n" + bX + "\n[unclosed\n"},
		{name: "unknown param", text: `[weather = hot] => type = "museum" : 0.8`},
		{name: "repeated param", text: `[time = t01; time = t02] => type = "museum" : 0.8`},
		{name: "score out of range", text: a + "\n" + `[] => type = "park" : 1.5`},
		{name: "NaN score", text: a + "\n" + `[] => type = "park" : NaN`},
		{name: "signed zero clauses", text: "[time = t01] => admission_cost = -0.0 : 0.3\n[time = t01] => admission_cost = 0.0 : 0.5\n"},
		{name: "NaN clauses", text: "[time = t01] => admission_cost = NaN : 0.3\n[time = t01] => admission_cost = NaN : 0.5\n"},
		{name: "degraded, valid text", text: a + "\n", degraded: true},
		{name: "degraded, malformed text", text: a + "\ngarbage\n", degraded: true},
		{name: "degraded, text conflict", text: b + "\n" + bX + "\n", degraded: true},
		{name: "degraded, stored conflict", stored: b, text: bX + "\n", degraded: true},
		{name: "failing persister, valid text", text: a + "\n" + b + "\n", failing: true},
		{name: "failing persister, unknown value", text: bad + "\n", failing: true},
		{name: "failing persister, stored conflict", stored: b, text: bX + "\n", failing: true},
	}
}

// randomLoadCase generates a real-profile-shaped text and breaks it in
// up to three places, each chosen from the ways an upload can fail.
func randomLoadCase(t *testing.T, env *Environment, rng *rand.Rand, i int) loadCase {
	t.Helper()
	prefs, err := dataset.ProfileSpec{Env: env, NumPrefs: 4 + rng.Intn(24), Seed: rng.Int63(),
		Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.2}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(prefs))
	for k, p := range prefs {
		lines[k] = FormatPreference(p)
	}
	c := loadCase{name: fmt.Sprintf("random %d", i)}
	// Some of the profile may already be stored, possibly with other
	// scores.
	if rng.Intn(3) == 0 {
		var stored []string
		for _, l := range lines[:1+rng.Intn(len(lines)/2)] {
			if rng.Intn(4) == 0 {
				l = rescore(l, rng)
			}
			stored = append(stored, l)
		}
		c.stored = strings.Join(stored, "\n")
	}
	for m := rng.Intn(4); m > 0; m-- {
		k := rng.Intn(len(lines))
		if !strings.HasPrefix(lines[k], "[") {
			continue // a comment or blank line, or one already cut short
		}
		switch rng.Intn(7) {
		case 0: // malformed line
			lines[k] = lines[k][:rng.Intn(len(lines[k]))]
		case 1: // unknown context value
			lines[k] = strings.Replace(lines[k], "= ", "= zz", 1)
		case 2: // a later line re-scores an earlier one
			lines = append(lines, rescore(lines[k], rng))
		case 3: // a same-score duplicate, which is not a conflict
			lines = append(lines, lines[k])
		case 4: // out-of-range score
			lines[k] = lines[k][:strings.LastIndexByte(lines[k], ':')] + ": 1.25"
		case 5: // comment and blank lines
			lines = append(lines[:k], append([]string{"# note", ""}, lines[k:]...)...)
		case 6:
			rng.Shuffle(len(lines), func(x, y int) { lines[x], lines[y] = lines[y], lines[x] })
		}
	}
	c.text = strings.Join(lines, "\n") + "\n"
	switch rng.Intn(6) {
	case 0:
		c.degraded = true
	case 1:
		c.failing = true
	}
	return c
}

// rescore gives a preference line a different score.
func rescore(line string, rng *rand.Rand) string {
	return line[:strings.LastIndexByte(line, ':')] + fmt.Sprintf(": 0.%02d", 1+rng.Intn(98))
}
