// Package preference implements contextual preferences (Section 3.2 of
// "Adding Context to Preferences", ICDE 2007): attribute clauses over
// non-context attributes, interest scores, conflict detection (Def. 6)
// and profiles (Def. 7).
package preference

import (
	"fmt"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/relation"
)

// Clause is an attribute clause "A θ a" over a non-context attribute of
// the underlying relation (Def. 5; the paper mostly uses θ as equality,
// all six comparison operators are supported).
type Clause struct {
	// Attr is the non-context attribute name.
	Attr string
	// Op is the comparison operator θ.
	Op relation.CmpOp
	// Val is the attribute value a.
	Val relation.Value
}

// String renders the clause as "A θ a".
func (c Clause) String() string {
	return fmt.Sprintf("%s %s %s", c.Attr, c.Op, c.Val)
}

// Equal reports whether two clauses are identical (same attribute,
// operator and value).
func (c Clause) Equal(d Clause) bool {
	return c.Attr == d.Attr && c.Op == d.Op && c.Val.Equal(d.Val)
}

// Predicate converts the clause into a relational selection predicate.
func (c Clause) Predicate() relation.Predicate {
	return relation.Predicate{Col: c.Attr, Op: c.Op, Val: c.Val}
}

// Key returns a canonical identity string for the clause, used to
// detect conflicting preferences on the same clause.
func (c Clause) Key() string {
	return c.Attr + "\x1f" + c.Op.String() + "\x1f" + c.Val.Kind().String() + "\x1f" + c.Val.String()
}

// Preference is a contextual preference (Def. 5): a context descriptor,
// an attribute clause and an interest score in [0, 1].
type Preference struct {
	// Descriptor is the context descriptor cod delimiting where the
	// preference applies.
	Descriptor ctxmodel.Descriptor
	// Clause is the attribute clause the score attaches to.
	Clause Clause
	// Score is the degree of interest: 1 = extreme interest, 0 = none.
	Score float64
}

// New validates and builds a contextual preference.
func New(d ctxmodel.Descriptor, c Clause, score float64) (Preference, error) {
	if c.Attr == "" {
		return Preference{}, fmt.Errorf("preference: empty attribute name")
	}
	if !(score >= 0 && score <= 1) { // NaN fails both comparisons
		return Preference{}, fmt.Errorf("preference: interest score %v outside [0, 1]", score)
	}
	return Preference{Descriptor: d, Clause: c, Score: score}, nil
}

// MustNew is New that panics on error; for literals in tests/examples.
func MustNew(d ctxmodel.Descriptor, c Clause, score float64) Preference {
	p, err := New(d, c, score)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the preference in the paper's triple notation.
func (p Preference) String() string {
	return fmt.Sprintf("(%s, (%s), %.2f)", p.Descriptor, p.Clause, p.Score)
}

// Conflicts implements Def. 6: two preferences conflict iff their
// descriptor contexts intersect, their clauses coincide, and their
// scores differ.
func Conflicts(e *ctxmodel.Environment, p1, p2 Preference) (bool, error) {
	if !p1.Clause.Equal(p2.Clause) {
		return false, nil
	}
	if p1.Score == p2.Score {
		return false, nil
	}
	s1, err := p1.Descriptor.Context(e)
	if err != nil {
		return false, err
	}
	s2, err := p2.Descriptor.Context(e)
	if err != nil {
		return false, err
	}
	set := make(map[string]bool, len(s1))
	for _, s := range s1 {
		set[s.Key()] = true
	}
	for _, s := range s2 {
		if set[s.Key()] {
			return true, nil
		}
	}
	return false, nil
}

// Profile is a set of non-conflicting contextual preferences (Def. 7).
type Profile struct {
	env   *ctxmodel.Environment
	prefs []Preference
	// seen indexes every (clause, state) pair stored so far by the
	// preference that first stored it, so Add checks Def. 6 in time
	// linear in the new preference's states. nil until the first Add
	// needs it; ParseProfile drops it when done.
	seen map[pairKey]firstSeen
}

// pairKey is one (clause, context state) pair; the struct key compares
// clauses exactly as Clause.Equal does.
type pairKey struct {
	clause Clause
	state  string
}

// firstSeen locates the earliest stored preference holding a pair:
// its index in the profile and the pair's position in its expansion.
type firstSeen struct {
	pref, ord int
}

// NewProfile creates an empty profile over the environment.
func NewProfile(e *ctxmodel.Environment) (*Profile, error) {
	if e == nil {
		return nil, fmt.Errorf("preference: nil environment")
	}
	return &Profile{env: e}, nil
}

// Env returns the profile's context environment.
func (pr *Profile) Env() *ctxmodel.Environment { return pr.env }

// Len returns the number of preferences.
func (pr *Profile) Len() int { return len(pr.prefs) }

// Pref returns the i-th preference.
func (pr *Profile) Pref(i int) Preference { return pr.prefs[i] }

// Preferences returns a copy of the preference list.
func (pr *Profile) Preferences() []Preference {
	return append([]Preference(nil), pr.prefs...)
}

// ConflictError reports the preference an insertion collided with, so
// callers can notify the user as the paper prescribes.
type ConflictError struct {
	// New is the rejected preference.
	New Preference
	// Existing is the profile preference it conflicts with.
	Existing Preference
	// State is a context state on which both apply.
	State ctxmodel.State
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("preference conflict on state %s: new %s vs existing %s",
		e.State, e.New, e.Existing)
}

// Add validates the preference's descriptor against the environment,
// checks Def. 6 conflicts against every stored preference, and appends
// it. On conflict it returns a *ConflictError naming the earliest
// stored preference in insertion order that conflicts, and the first
// shared state in that preference's expansion order; the profile is
// left unchanged. Same clause and score on overlapping states is not a
// conflict, and such a duplicate is kept for fidelity with the
// per-state profile-tree storage.
//
// All preferences holding a pair share one score (a second score would
// have conflicted), so the earliest conflicting preference is the
// first holder of every pair it shares with p, and the index finds it.
func (pr *Profile) Add(p Preference) error {
	states, err := p.Descriptor.Context(pr.env)
	if err != nil {
		return err
	}
	if pr.seen == nil {
		if err := pr.index(); err != nil {
			return err
		}
	}
	keys := make([]pairKey, len(states))
	conflict := firstSeen{pref: -1}
	var at ctxmodel.State
	for i, s := range states {
		keys[i] = pairKey{clause: p.Clause, state: s.Key()}
		fs, ok := pr.seen[keys[i]]
		if !ok || pr.prefs[fs.pref].Score == p.Score {
			continue
		}
		if conflict.pref < 0 || fs.pref < conflict.pref || (fs.pref == conflict.pref && fs.ord < conflict.ord) {
			conflict, at = fs, s
		}
	}
	if conflict.pref >= 0 {
		return &ConflictError{New: p, Existing: pr.prefs[conflict.pref], State: at}
	}
	pr.record(len(pr.prefs), keys)
	pr.prefs = append(pr.prefs, p)
	return nil
}

// record indexes the pairs of the preference at position idx that no
// earlier preference holds.
func (pr *Profile) record(idx int, keys []pairKey) {
	for ord, k := range keys {
		if _, ok := pr.seen[k]; !ok {
			pr.seen[k] = firstSeen{pref: idx, ord: ord}
		}
	}
}

// index (re)builds the pair index from the stored preferences.
func (pr *Profile) index() error {
	pr.seen = make(map[pairKey]firstSeen)
	for i, q := range pr.prefs {
		qs, err := q.Descriptor.Context(pr.env)
		if err != nil {
			pr.seen = nil
			return err
		}
		keys := make([]pairKey, len(qs))
		for j, s := range qs {
			keys[j] = pairKey{clause: q.Clause, state: s.Key()}
		}
		pr.record(i, keys)
	}
	return nil
}

// MustAdd adds a batch of preferences, panicking on any error; for
// construction of fixed profiles in tests and examples.
func (pr *Profile) MustAdd(ps ...Preference) {
	for _, p := range ps {
		if err := pr.Add(p); err != nil {
			panic(err)
		}
	}
}

// Descriptors returns the set CP of context descriptors appearing in
// the profile, in insertion order.
func (pr *Profile) Descriptors() []ctxmodel.Descriptor {
	out := make([]ctxmodel.Descriptor, len(pr.prefs))
	for i, p := range pr.prefs {
		out[i] = p.Descriptor
	}
	return out
}
