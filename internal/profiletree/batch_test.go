package profiletree

import (
	"errors"
	"math"
	"strings"
	"testing"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/preference"
)

func batchEnv(t *testing.T) *ctxmodel.Environment {
	t.Helper()
	env, err := ctxmodel.ReferenceEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func pref(t *testing.T, line string) preference.Preference {
	t.Helper()
	p, err := preference.ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInsertAllAtomic: a batch whose later member conflicts with stored
// state must leave the tree exactly as it was — no partial application.
func TestInsertAllAtomic(t *testing.T) {
	env := batchEnv(t)
	tr, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(pref(t, `[location = Plaka] => type = museum : 0.8`)); err != nil {
		t.Fatal(err)
	}
	before, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	beforePrefs, beforeCells := tr.NumPreferences(), tr.NumCells()

	err = tr.InsertAll(
		pref(t, `[temperature = warm] => type = park : 0.5`),               // valid
		pref(t, `[location = Plaka] => type = museum : 0.1`),               // conflicts with stored
		pref(t, `[accompanying_people = friends] => type = brewery : 0.9`), // never reached
	)
	var ce *preference.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("InsertAll = %v, want ConflictError", err)
	}
	if !strings.Contains(err.Error(), "preference 1") {
		t.Errorf("error does not name the failing index: %v", err)
	}
	after, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("failed batch mutated the tree:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if tr.NumPreferences() != beforePrefs || tr.NumCells() != beforeCells {
		t.Errorf("counters drifted: prefs %d->%d cells %d->%d",
			beforePrefs, tr.NumPreferences(), beforeCells, tr.NumCells())
	}
}

// TestInsertAllIntraBatchConflict: two members of the same batch that
// conflict with each other must be rejected even though neither
// conflicts with stored state.
func TestInsertAllIntraBatchConflict(t *testing.T) {
	env := batchEnv(t)
	tr, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = tr.InsertAll(
		pref(t, `[location = Plaka] => type = museum : 0.8`),
		pref(t, `[location in {Plaka, Kifisia}] => type = museum : 0.3`),
	)
	var ce *preference.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("intra-batch conflict not detected: %v", err)
	}
	if tr.NumPreferences() != 0 || tr.NumCells() != 0 {
		t.Errorf("rejected batch left residue: prefs=%d cells=%d", tr.NumPreferences(), tr.NumCells())
	}
}

func TestCheckInsertDoesNotMutate(t *testing.T) {
	env := batchEnv(t)
	tr, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []preference.Preference{
		pref(t, `[location = Plaka] => type = museum : 0.8`),
		pref(t, `[] => type = park : 0.4`),
	}
	if err := tr.CheckInsert(batch...); err != nil {
		t.Fatal(err)
	}
	if tr.NumPreferences() != 0 || tr.NumCells() != 0 || tr.NumPaths() != 0 {
		t.Errorf("CheckInsert mutated the tree: prefs=%d cells=%d", tr.NumPreferences(), tr.NumCells())
	}
	if err := tr.InsertAll(batch...); err != nil {
		t.Fatalf("validated batch failed to apply: %v", err)
	}
	if tr.NumPreferences() != 2 {
		t.Errorf("NumPreferences = %d, want 2", tr.NumPreferences())
	}
	// Same-score overlap within a batch is a harmless duplicate, not a
	// conflict (Def. 6 requires differing scores).
	if err := tr.CheckInsert(
		pref(t, `[temperature = warm] => name = "Lake" : 0.6`),
		pref(t, `[temperature = warm] => name = "Lake" : 0.6`),
	); err != nil {
		t.Errorf("duplicate scores flagged as conflict: %v", err)
	}
	// A single-preference batch keeps the bare (unwrapped) error.
	err = tr.CheckInsert(pref(t, `[location = Plaka] => type = museum : 0.2`))
	if err == nil || strings.Contains(err.Error(), "preference 0") {
		t.Errorf("single check error = %v, want bare conflict", err)
	}
}

// TestBatchClauseEqualityMatchesStored: the batch check decides that
// two clauses are the same exactly as the stored-entry check does
// (Clause.Equal), so a batch and the same preferences added one at a
// time agree. -0.0 equals 0.0; a NaN value equals nothing, itself
// included.
func TestBatchClauseEqualityMatchesStored(t *testing.T) {
	env := batchEnv(t)
	cases := []struct {
		name     string
		a, b     string
		conflict bool
	}{
		{"signed zero", `[location = Plaka] => admission_cost = -0.0 : 0.3`, `[location = Plaka] => admission_cost = 0.0 : 0.5`, true},
		{"NaN value", `[location = Plaka] => admission_cost = NaN : 0.3`, `[location = Plaka] => admission_cost = NaN : 0.5`, false},
		{"int and float", `[location = Plaka] => admission_cost = 1 : 0.3`, `[location = Plaka] => admission_cost = 1.0 : 0.5`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := pref(t, tc.a), pref(t, tc.b)
			batch, err := New(env, nil)
			if err != nil {
				t.Fatal(err)
			}
			batchErr := batch.InsertAll(a, b)
			single, err := New(env, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.Insert(a); err != nil {
				t.Fatal(err)
			}
			singleErr := single.Insert(b)
			var ce *preference.ConflictError
			if got := errors.As(batchErr, &ce); got != tc.conflict {
				t.Errorf("batch: conflict = %v (%v), want %v", got, batchErr, tc.conflict)
			}
			if got := errors.As(singleErr, &ce); got != tc.conflict {
				t.Errorf("one at a time: conflict = %v (%v), want %v", got, singleErr, tc.conflict)
			}
		})
	}
}

// TestBatchConflictNamesEarlierMember: an intra-batch conflict reports
// the earlier member itself — its own descriptor, clause and score — as
// Existing, and the first member storing the pair when several do.
func TestBatchConflictNamesEarlierMember(t *testing.T) {
	env := batchEnv(t)
	tr, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := pref(t, `[location in {Plaka, Kifisia}] => type = museum : 0.8`)
	second := pref(t, `[location = Kifisia] => type = museum : 0.8`) // same pair, same score
	late := pref(t, `[location = Kifisia] => type = museum : 0.3`)
	_, err = tr.Check(first, second, pref(t, `[] => type = park : 0.4`), late)
	var ce *preference.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("Check = %v, want ConflictError", err)
	}
	if !strings.HasPrefix(err.Error(), "preference 3: ") {
		t.Errorf("error does not name member 3: %v", err)
	}
	if ce.Existing.String() != first.String() || ce.New.String() != late.String() {
		t.Errorf("conflict = new %s vs existing %s, want new %s vs existing %s", ce.New, ce.Existing, late, first)
	}
	if got := ce.State.String(); got != "(Kifisia, all, all)" {
		t.Errorf("conflict state = %s, want (Kifisia, all, all)", got)
	}
}

// TestApplyRefusesStaleBatch: a checked batch applies once, to the tree
// that checked it, and only while that tree is unchanged.
func TestApplyRefusesStaleBatch(t *testing.T) {
	env := batchEnv(t)
	tr, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Check(pref(t, `[location = Plaka] => type = museum : 0.8`))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Apply(b); err == nil || other.NumPreferences() != 0 {
		t.Errorf("another tree applied the batch: err %v, %d preferences", err, other.NumPreferences())
	}
	stale, err := tr.Check(pref(t, `[location = Plaka] => type = museum : 0.2`))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(b); err == nil || tr.NumPreferences() != 1 {
		t.Errorf("batch applied twice: err %v, %d preferences", err, tr.NumPreferences())
	}
	// Checked before the first batch landed, it now conflicts.
	if err := tr.Apply(stale); err == nil || tr.NumLeafEntries() != 1 {
		t.Errorf("stale batch applied: err %v, %d entries", err, tr.NumLeafEntries())
	}
	// A delete that removed nothing leaves the tree, and a batch, valid.
	fresh, err := tr.Check(pref(t, `[temperature = warm] => type = park : 0.4`))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tr.Delete(pref(t, `[temperature = hot] => type = park : 0.4`)); err != nil || n != 0 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if err := tr.Apply(fresh); err != nil {
		t.Errorf("batch refused after a no-op delete: %v", err)
	}
}

// TestCheckRejectsNaNScore: a NaN interest score fails the range check
// like any score outside [0, 1], in the tree and in the serial baseline.
func TestCheckRejectsNaNScore(t *testing.T) {
	env := batchEnv(t)
	tr, err := New(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := NewSequential(env)
	if err != nil {
		t.Fatal(err)
	}
	p := pref(t, `[location = Plaka] => type = museum : 0.5`)
	p.Score = math.NaN()
	if err := tr.Insert(p); err == nil || !strings.Contains(err.Error(), "NaN outside [0, 1]") {
		t.Errorf("Insert of a NaN score = %v, want a range error", err)
	}
	if tr.NumPreferences() != 0 {
		t.Errorf("rejected score stored: %d preferences", tr.NumPreferences())
	}
	if err := sq.Insert(p); err == nil || !strings.Contains(err.Error(), "NaN outside [0, 1]") {
		t.Errorf("Sequential.Insert of a NaN score = %v, want a range error", err)
	}
	if sq.NumPreferences() != 0 {
		t.Errorf("Sequential stored the rejected score: %d preferences", sq.NumPreferences())
	}
}
