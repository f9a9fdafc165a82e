package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"contextpref"
	"contextpref/httpapi"
	"contextpref/internal/distance"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/relation"
)

// oracle answers /query and /resolve the slow, obviously-right way: the
// paper's sequential scan (profiletree.Sequential) for Search_CS and an
// uncached query.Engine over the same relation for Rank_CS, per user,
// with the run's writes mirrored into it.
type oracle struct {
	in      *inputs
	toggles toggles // the churn preferences each user holds
	stores  map[int]*profiletree.Sequential
	engines map[int]*query.Engine
	topK    contextpref.Query
}

func newOracle(in *inputs, t toggles) (*oracle, error) {
	cq, err := contextpref.ParseQuery("top 10")
	if err != nil {
		return nil, err
	}
	return &oracle{in: in, toggles: t, stores: map[int]*profiletree.Sequential{},
		engines: map[int]*query.Engine{}, topK: cq}, nil
}

// store returns the user's sequential store, building it on first use
// from the base profile plus the churn preferences the user holds now.
func (or *oracle) store(u int) (*profiletree.Sequential, *query.Engine, error) {
	if sq, ok := or.stores[u]; ok {
		return sq, or.engines[u], nil
	}
	sq, err := profiletree.NewSequential(or.in.env)
	if err != nil {
		return nil, nil, err
	}
	prefs := or.in.profiles[u]
	if or.in.churn != nil {
		prefs = append(append([]contextpref.Preference(nil), prefs...), or.toggles.present(or.in, u)...)
	}
	for _, p := range prefs {
		if err := sq.Insert(p); err != nil {
			return nil, nil, err
		}
	}
	en, err := query.NewEngine(sq, or.in.rel, distance.Jaccard{}, relation.CombineMax)
	if err != nil {
		return nil, nil, err
	}
	or.stores[u], or.engines[u] = sq, en
	return sq, en, nil
}

// apply mirrors a resolved write that the server acknowledged. Users
// whose store is not built yet need nothing: the toggles already hold
// the write.
func (or *oracle) apply(o op) error {
	sq, ok := or.stores[o.user]
	if !ok {
		return nil
	}
	p := or.in.churn[o.user][o.pref]
	switch o.kind {
	case opAdd:
		return sq.Insert(p)
	case opRemove:
		_, err := sq.Delete(p)
		return err
	}
	return nil
}

// check compares the server's 2xx answer to a read op with the oracle's.
func (or *oracle) check(o op, body []byte) error {
	switch o.kind {
	case opQuery:
		want, err := or.query(o)
		if err != nil {
			return err
		}
		var got httpapi.QueryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("query %s: decoding answer: %w", or.describe(o), err)
		}
		if !reflect.DeepEqual(normalizeQuery(got), want) {
			return fmt.Errorf("query %s: answer differs from the sequential-scan oracle:\n got  %+v\n want %+v", or.describe(o), got, want)
		}
	case opResolve:
		want, err := or.resolve(o)
		if err != nil {
			return err
		}
		var got []httpapi.ResolveCandidate
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("resolve %s: decoding answer: %w", or.describe(o), err)
		}
		for i := range got {
			sort.Strings(got[i].Entries)
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("resolve %s: answer differs from the sequential-scan oracle:\n got  %+v\n want %+v", or.describe(o), got, want)
		}
	default:
		return fmt.Errorf("oracle: cannot check a %v op", o.kind)
	}
	return nil
}

func (or *oracle) describe(o op) string {
	return fmt.Sprintf("user %s state %s", or.in.users[o.user], or.in.stateArg[o.state])
}

// query renders the oracle's /query answer exactly as httpapi does.
func (or *oracle) query(o op) (httpapi.QueryResponse, error) {
	_, en, err := or.store(o.user)
	if err != nil {
		return httpapi.QueryResponse{}, err
	}
	res, err := en.Execute(or.topK, or.in.states[o.state])
	if err != nil {
		return httpapi.QueryResponse{}, err
	}
	resp := httpapi.QueryResponse{Contextual: res.Contextual}
	for _, rl := range res.Resolutions {
		if rl.Found {
			resp.Matched = append(resp.Matched, fmt.Sprintf("%s @ %.3f", rl.Match.State, rl.Match.Distance))
		}
	}
	for _, t := range res.Tuples {
		vals := make([]string, len(t.Tuple))
		for i, v := range t.Tuple {
			vals[i] = v.String()
		}
		resp.Tuples = append(resp.Tuples, httpapi.QueryTuple{Score: t.Score, Values: vals})
	}
	return normalizeQuery(resp), nil
}

// normalizeQuery makes empty and absent lists compare equal.
func normalizeQuery(r httpapi.QueryResponse) httpapi.QueryResponse {
	if len(r.Matched) == 0 {
		r.Matched = nil
	}
	if len(r.Tuples) == 0 {
		r.Tuples = nil
	}
	return r
}

// resolve renders the oracle's /resolve answer: every covering state,
// most relevant first (distance, then specificity, then state key), with
// entries sorted because their order within a state is insertion order.
func (or *oracle) resolve(o op) ([]httpapi.ResolveCandidate, error) {
	sq, _, err := or.store(o.user)
	if err != nil {
		return nil, err
	}
	cands, _, err := sq.SearchCover(or.in.states[o.state], distance.Jaccard{})
	if err != nil {
		return nil, err
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
	var out []httpapi.ResolveCandidate
	for _, c := range cands {
		rc := httpapi.ResolveCandidate{State: c.State.String(), Distance: c.Distance, Specificity: c.Specificity}
		for _, e := range c.Entries {
			rc.Entries = append(rc.Entries, fmt.Sprintf("%s : %.2f", e.Clause, e.Score))
		}
		sort.Strings(rc.Entries)
		out = append(out, rc)
	}
	return out, nil
}
