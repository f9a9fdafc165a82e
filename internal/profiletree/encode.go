package profiletree

import (
	"fmt"
	"sort"
	"strings"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/preference"
)

// This file implements a line-oriented text serialization of profile
// trees and an order-suggestion heuristic.
//
// Serialization reuses the preference line codec: every stored
// (state, clause, score) triple becomes one preference whose descriptor
// constrains each non-"all" parameter with an equality. Decoding such
// lines reproduces a tree with identical paths and leaf entries — the
// original descriptors (e.g. in-sets that expanded to several states)
// are not preserved, but the tree they produced is, which is the only
// thing resolution semantics depend on.

// Encode renders the tree's contents, one line per leaf entry, in a
// deterministic (state-sorted) order: SortedPaths'.
func (t *Tree) Encode() (string, error) {
	var b strings.Builder
	for _, p := range t.SortedPaths() {
		var pds []ctxmodel.ParamDescriptor
		for i, v := range p.State {
			if v != "all" {
				pds = append(pds, ctxmodel.Eq(t.env.Param(i).Name(), v))
			}
		}
		d, err := ctxmodel.NewDescriptor(pds...)
		if err != nil {
			return "", err
		}
		for _, e := range p.Entries {
			pref, err := preference.New(d, e.Clause, e.Score)
			if err != nil {
				return "", err
			}
			b.WriteString(preference.Format(pref))
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

// SortedPaths is Paths sorted by the states' Key(), the order Encode
// renders the entries in.
func (t *Tree) SortedPaths() []Candidate {
	paths := t.Paths()
	sort.Slice(paths, func(i, j int) bool { return paths[i].State.Key() < paths[j].State.Key() })
	return paths
}

// Decode builds a tree (with the given order; nil = identity) from the
// Encode text format. Blank lines and '#' comments are skipped.
func Decode(env *ctxmodel.Environment, order []int, text string) (*Tree, error) {
	t, err := New(env, order)
	if err != nil {
		return nil, err
	}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := preference.ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("profiletree: line %d: %w", ln+1, err)
		}
		if err := t.Insert(p); err != nil {
			return nil, fmt.Errorf("profiletree: line %d: %w", ln+1, err)
		}
	}
	return t, nil
}

// SuggestOrder proposes a parameter-to-level assignment for the given
// preference workload: parameters are placed top-to-bottom by the
// number of *distinct* values their descriptors actually use, smallest
// first. For uniform workloads this degenerates to the paper's
// "larger domains lower" rule (Fig. 5/6 left–center); for skewed
// workloads it captures the Fig. 6 (right) refinement that a large but
// very skewed domain — few distinct hot values — belongs higher in the
// tree. Parameters never mentioned by any descriptor count as a single
// "all" value. Ties break toward the smaller full domain.
func SuggestOrder(env *ctxmodel.Environment, prefs []preference.Preference) ([]int, error) {
	if env == nil {
		return nil, fmt.Errorf("profiletree: nil environment")
	}
	n := env.NumParams()
	distinct := make([]map[string]bool, n)
	for i := range distinct {
		distinct[i] = make(map[string]bool)
	}
	for _, p := range prefs {
		states, err := p.Descriptor.Context(env)
		if err != nil {
			return nil, err
		}
		for _, s := range states {
			for i, v := range s {
				distinct[i][v] = true
			}
		}
	}
	order := IdentityOrder(n)
	sort.SliceStable(order, func(a, b int) bool {
		da, db := len(distinct[order[a]]), len(distinct[order[b]])
		if da != db {
			return da < db
		}
		sa := len(env.Param(order[a]).Hierarchy().DetailedValues())
		sb := len(env.Param(order[b]).Hierarchy().DetailedValues())
		return sa < sb
	})
	return order, nil
}
