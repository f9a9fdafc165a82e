package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// The correctness gate accepts the oracle's own answer and rejects any
// corruption of it: a wrong score, a dropped tuple, a wrong resolution
// distance or a missing candidate entry.
func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	in := tinyInputs(t, "cold-rank", 9)
	or, err := newOracle(in, make(toggles, in.w.users))
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(in, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	var q op
	for i := 0; ; i++ { // a query that ranks tuples by preference
		q = g.read(opQuery)
		want, err := or.query(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Contextual && len(want.Tuples) > 1 {
			break
		}
		if i > 1000 {
			t.Fatal("no contextual query among 1000 draws")
		}
	}
	good, err := or.query(q)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(good)
	if err := or.check(q, body); err != nil {
		t.Fatalf("oracle rejects its own answer: %v", err)
	}
	bad := good
	bad.Tuples = append(bad.Tuples[:0:0], good.Tuples...)
	bad.Tuples[0].Score += 0.01
	body, _ = json.Marshal(bad)
	if err := or.check(q, body); err == nil {
		t.Error("a wrong score passed the gate")
	}
	bad.Tuples = good.Tuples[1:]
	body, _ = json.Marshal(bad)
	if err := or.check(q, body); err == nil {
		t.Error("a dropped tuple passed the gate")
	}
	if err := or.check(q, []byte("not json")); err == nil {
		t.Error("an undecodable answer passed the gate")
	}

	var r op
	for i := 0; ; i++ { // a resolution with candidates
		r = g.read(opResolve)
		want, err := or.resolve(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) > 1 {
			break
		}
		if i > 1000 {
			t.Fatal("no covered state among 1000 draws")
		}
	}
	cands, err := or.resolve(r)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(cands)
	if err := or.check(r, body); err != nil {
		t.Fatalf("oracle rejects its own resolution: %v", err)
	}
	cands[0].Distance += 1e-9
	body, _ = json.Marshal(cands)
	if err := or.check(r, body); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Errorf("a wrong distance passed the gate (err %v)", err)
	}
	cands[0].Distance -= 1e-9
	cands[1].Entries = cands[1].Entries[1:]
	body, _ = json.Marshal(cands)
	if err := or.check(r, body); err == nil {
		t.Error("a missing entry passed the gate")
	}
}

// Mirrored writes change the oracle's answers exactly as the server's
// toggles do: adding a churn preference and removing it again restores
// the original resolution.
func TestOracleMirrorsWrites(t *testing.T) {
	in := tinyInputs(t, "write-mix", 4)
	tg := make(toggles, in.w.users)
	or, err := newOracle(in, tg)
	if err != nil {
		t.Fatal(err)
	}
	r := op{kind: opResolve, user: 0, state: in.hotBase}
	before, err := or.resolve(r)
	if err != nil {
		t.Fatal(err)
	}
	cells := or.stores[0].NumCells()
	for pref := 0; pref < in.w.churn; pref++ {
		add := tg.resolve(op{kind: opWrite, user: 0, pref: pref})
		if add.kind != opAdd {
			t.Fatalf("first toggle of pref %d resolved to %v", pref, add.kind)
		}
		tg.commit(add)
		if err := or.apply(add); err != nil {
			t.Fatal(err)
		}
	}
	if got := or.stores[0].NumCells(); got <= cells {
		t.Fatalf("adding %d churn preferences left %d cells (was %d)", in.w.churn, got, cells)
	}
	for pref := 0; pref < in.w.churn; pref++ {
		rm := tg.resolve(op{kind: opWrite, user: 0, pref: pref})
		if rm.kind != opRemove {
			t.Fatalf("second toggle of pref %d resolved to %v", pref, rm.kind)
		}
		tg.commit(rm)
		if err := or.apply(rm); err != nil {
			t.Fatal(err)
		}
	}
	after, err := or.resolve(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := or.stores[0].NumCells(); got != cells {
		t.Fatalf("removing every added churn preference left %d cells, want %d", got, cells)
	}
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if string(a) != string(b) {
		t.Fatalf("add+remove of every churn preference changed the resolution:\n%s\n%s", a, b)
	}
}
