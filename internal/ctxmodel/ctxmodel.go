// Package ctxmodel implements the context model of Section 3.1 of
// "Adding Context to Preferences" (ICDE 2007): context parameters with
// hierarchical domains, context environments, (extended) context states,
// context descriptors (per-parameter, composite and extended), the
// expansion of descriptors into their finite sets of states, and the
// covers partial order between states (Def. 10).
package ctxmodel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"contextpref/internal/hierarchy"
)

// Parameter is a context parameter Ci: a named attribute whose extended
// domain is given by a hierarchy of levels.
type Parameter struct {
	name string
	h    *hierarchy.Hierarchy
}

// NewParameter creates a context parameter backed by the hierarchy.
// The parameter name defaults to the hierarchy name when name is empty.
func NewParameter(name string, h *hierarchy.Hierarchy) (*Parameter, error) {
	if h == nil {
		return nil, fmt.Errorf("ctxmodel: parameter %q has nil hierarchy", name)
	}
	if name == "" {
		name = h.Name()
	}
	return &Parameter{name: name, h: h}, nil
}

// Name returns the parameter name.
func (p *Parameter) Name() string { return p.name }

// Hierarchy returns the parameter's hierarchy.
func (p *Parameter) Hierarchy() *hierarchy.Hierarchy { return p.h }

// Environment is the context environment CE: an ordered, finite set of
// context parameters {C1, ..., Cn}.
type Environment struct {
	params []*Parameter
	index  map[string]int
}

// NewEnvironment creates an environment over the given parameters.
// Parameter names must be distinct and at least one parameter is
// required.
func NewEnvironment(params ...*Parameter) (*Environment, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("ctxmodel: environment needs at least one parameter")
	}
	e := &Environment{
		params: append([]*Parameter(nil), params...),
		index:  make(map[string]int, len(params)),
	}
	for i, p := range params {
		if p == nil {
			return nil, fmt.Errorf("ctxmodel: nil parameter at position %d", i)
		}
		if _, dup := e.index[p.name]; dup {
			return nil, fmt.Errorf("ctxmodel: duplicate parameter %q", p.name)
		}
		e.index[p.name] = i
	}
	return e, nil
}

// NumParams returns n, the number of context parameters.
func (e *Environment) NumParams() int { return len(e.params) }

// Param returns the i-th parameter.
func (e *Environment) Param(i int) *Parameter { return e.params[i] }

// ParamByName returns the parameter with the given name.
func (e *Environment) ParamByName(name string) (*Parameter, bool) {
	i, ok := e.index[name]
	if !ok {
		return nil, false
	}
	return e.params[i], true
}

// ParamIndex returns the position of the named parameter.
func (e *Environment) ParamIndex(name string) (int, bool) {
	i, ok := e.index[name]
	return i, ok
}

// Names returns the parameter names in environment order.
func (e *Environment) Names() []string {
	out := make([]string, len(e.params))
	for i, p := range e.params {
		out[i] = p.name
	}
	return out
}

// WorldSize returns |W| = ∏ |dom(Ci)|, the number of detailed states.
func (e *Environment) WorldSize() int {
	n := 1
	for _, p := range e.params {
		n *= len(p.h.DetailedValues())
	}
	return n
}

// ExtendedWorldSize returns |EW| = ∏ |edom(Ci)|.
func (e *Environment) ExtendedWorldSize() int {
	n := 1
	for _, p := range e.params {
		n *= p.h.ExtendedDomainSize()
	}
	return n
}

// State is an extended context state: an n-tuple (c1, ..., cn) with
// ci ∈ edom(Ci), in environment parameter order.
type State []string

// stateSep separates values inside State.Key; it cannot occur in values.
const stateSep = "\x1f"

// Key returns a canonical string form usable as a map key.
func (s State) Key() string { return strings.Join(s, stateSep) }

// CompareKey orders two states of one environment exactly as
// strings.Compare orders their Key() renderings, without building
// either key: components equal in both states are skipped whole, and
// from the first differing one the two renderings are compared byte by
// byte, separators included.
func (s State) CompareKey(t State) int {
	for k := 0; k < len(s) && k < len(t); k++ {
		if s[k] == t[k] {
			continue
		}
		a, b := keyCursor{s: s, k: k}, keyCursor{s: t, k: k}
		for {
			x, okx := a.next()
			y, oky := b.next()
			if !okx || !oky {
				return cmp.Compare(remaining(okx), remaining(oky))
			}
			if x != y {
				return cmp.Compare(x, y)
			}
		}
	}
	return cmp.Compare(len(s), len(t))
}

// keyCursor streams the bytes of a state's Key() from component k on.
type keyCursor struct {
	s    State
	k, i int // component, byte within it
}

// next returns the cursor's next key byte, or false past the key's end.
func (c *keyCursor) next() (byte, bool) {
	if c.k >= len(c.s) {
		return 0, false
	}
	if v := c.s[c.k]; c.i < len(v) {
		c.i++
		return v[c.i-1], true
	}
	c.k, c.i = c.k+1, 0
	if c.k == len(c.s) {
		return 0, false
	}
	return stateSep[0], true
}

// remaining ranks an exhausted key before one with bytes left.
func remaining(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// StateFromKey reconstructs a state from a Key().
func StateFromKey(k string) State { return State(strings.Split(k, stateSep)) }

// Clone returns a copy of the state.
func (s State) Clone() State { return append(State(nil), s...) }

// Equal reports componentwise equality.
func (s State) Equal(t State) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// String renders the state as (c1, c2, ..., cn).
func (s State) String() string { return "(" + strings.Join(s, ", ") + ")" }

// NewState validates values against the environment's extended domains
// and returns them as a state.
func (e *Environment) NewState(values ...string) (State, error) {
	if err := e.Validate(values); err != nil {
		return nil, err
	}
	return State(append([]string(nil), values...)), nil
}

// AllState returns the empty-context state (all, all, ..., all).
func (e *Environment) AllState() State {
	s := make(State, len(e.params))
	for i := range s {
		s[i] = hierarchy.All
	}
	return s
}

// Validate checks that s is a well-formed state of this environment,
// without copying it.
func (e *Environment) Validate(s State) error {
	if len(s) != len(e.params) {
		return fmt.Errorf("ctxmodel: state has %d values, environment has %d parameters",
			len(s), len(e.params))
	}
	for i, v := range s {
		if !e.params[i].h.Contains(v) {
			return fmt.Errorf("ctxmodel: value %q not in edom(%s)", v, e.params[i].name)
		}
	}
	return nil
}

// LevelsOf implements Def. 13: the hierarchy level index of each value
// of the state.
func (e *Environment) LevelsOf(s State) ([]int, error) {
	if len(s) != len(e.params) {
		return nil, fmt.Errorf("ctxmodel: state arity %d, want %d", len(s), len(e.params))
	}
	out := make([]int, len(s))
	for i, v := range s {
		l, ok := e.params[i].h.LevelOf(v)
		if !ok {
			return nil, fmt.Errorf("ctxmodel: value %q not in edom(%s)", v, e.params[i].name)
		}
		out[i] = l
	}
	return out, nil
}

// IsDetailed reports whether every value of s belongs to the detailed
// level of its parameter — i.e. s ∈ W, not merely EW.
func (e *Environment) IsDetailed(s State) bool {
	for i, v := range s {
		if l, ok := e.params[i].h.LevelOf(v); !ok || l != 0 {
			return false
		}
	}
	return true
}

// Covers implements Def. 10: s1 covers s2 iff for every parameter k,
// s1[k] = s2[k] or s1[k] is an ancestor of s2[k] in the parameter's
// hierarchy. Covers is a partial order (Theorem 1).
func (e *Environment) Covers(s1, s2 State) bool {
	if len(s1) != len(e.params) || len(s2) != len(e.params) {
		return false
	}
	for i := range s1 {
		if !e.params[i].h.IsAncestorOrSelf(s1[i], s2[i]) {
			return false
		}
	}
	return true
}

// CoversSet implements Def. 11: Si covers Sj iff every state of Sj is
// covered by some state of Si.
func (e *Environment) CoversSet(si, sj []State) bool {
	for _, s := range sj {
		covered := false
		for _, sc := range si {
			if e.Covers(sc, s) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// DescriptorKind distinguishes the three forms of Def. 1.
type DescriptorKind int

const (
	// KindEq is Ci = v.
	KindEq DescriptorKind = iota
	// KindIn is Ci ∈ {v1, ..., vm}.
	KindIn
	// KindRange is Ci ∈ [v1, vm].
	KindRange
)

// String names the descriptor kind.
func (k DescriptorKind) String() string {
	switch k {
	case KindEq:
		return "eq"
	case KindIn:
		return "in"
	case KindRange:
		return "range"
	}
	return fmt.Sprintf("DescriptorKind(%d)", int(k))
}

// ParamDescriptor is a context parameter descriptor cod(Ci) (Def. 1).
type ParamDescriptor struct {
	// Param is the context parameter name the descriptor constrains.
	Param string
	// Kind selects among Ci = v, Ci ∈ {…} and Ci ∈ [lo, hi].
	Kind DescriptorKind
	// Values holds the single value (KindEq), the value set (KindIn) or
	// the two range endpoints (KindRange).
	Values []string
}

// Eq builds the descriptor Ci = v.
func Eq(param, v string) ParamDescriptor {
	return ParamDescriptor{Param: param, Kind: KindEq, Values: []string{v}}
}

// In builds the descriptor Ci ∈ {vs...}.
func In(param string, vs ...string) ParamDescriptor {
	return ParamDescriptor{Param: param, Kind: KindIn, Values: append([]string(nil), vs...)}
}

// Between builds the descriptor Ci ∈ [lo, hi] over the total order of
// the endpoints' level.
func Between(param, lo, hi string) ParamDescriptor {
	return ParamDescriptor{Param: param, Kind: KindRange, Values: []string{lo, hi}}
}

// Context implements Def. 2: the finite set of values the descriptor
// denotes, validated against the parameter's extended domain. The
// result is the caller's own slice.
func (pd ParamDescriptor) Context(e *Environment) ([]string, error) {
	p, ok := e.ParamByName(pd.Param)
	if !ok {
		return nil, fmt.Errorf("ctxmodel: unknown context parameter %q", pd.Param)
	}
	vals, err := pd.values(p)
	if err != nil || pd.Kind != KindEq {
		return vals, err
	}
	return slices.Clone(vals), nil
}

// values is Context for the descriptor's own parameter p, except that
// an eq-descriptor returns pd.Values itself, to be read only.
func (pd ParamDescriptor) values(p *Parameter) ([]string, error) {
	switch pd.Kind {
	case KindEq:
		if len(pd.Values) != 1 {
			return nil, fmt.Errorf("ctxmodel: %s: eq descriptor needs exactly one value, got %d", pd.Param, len(pd.Values))
		}
		if !p.h.Contains(pd.Values[0]) {
			return nil, fmt.Errorf("ctxmodel: value %q not in edom(%s)", pd.Values[0], pd.Param)
		}
		return pd.Values, nil
	case KindIn:
		if len(pd.Values) == 0 {
			return nil, fmt.Errorf("ctxmodel: %s: empty in-descriptor", pd.Param)
		}
		out := make([]string, 0, len(pd.Values))
		seen := make(map[string]bool, len(pd.Values))
		for _, v := range pd.Values {
			if !p.h.Contains(v) {
				return nil, fmt.Errorf("ctxmodel: value %q not in edom(%s)", v, pd.Param)
			}
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out, nil
	case KindRange:
		if len(pd.Values) != 2 {
			return nil, fmt.Errorf("ctxmodel: %s: range descriptor needs exactly two endpoints, got %d", pd.Param, len(pd.Values))
		}
		return p.h.Range(pd.Values[0], pd.Values[1])
	}
	return nil, fmt.Errorf("ctxmodel: %s: unknown descriptor kind %d", pd.Param, int(pd.Kind))
}

// String renders the parameter descriptor in the paper's notation.
func (pd ParamDescriptor) String() string {
	switch pd.Kind {
	case KindEq:
		return fmt.Sprintf("%s = %s", pd.Param, strings.Join(pd.Values, ","))
	case KindIn:
		return fmt.Sprintf("%s ∈ {%s}", pd.Param, strings.Join(pd.Values, ", "))
	case KindRange:
		if len(pd.Values) == 2 {
			return fmt.Sprintf("%s ∈ [%s, %s]", pd.Param, pd.Values[0], pd.Values[1])
		}
	}
	return fmt.Sprintf("%s ?%v", pd.Param, pd.Values)
}

// Descriptor is a composite context descriptor (Def. 3): a conjunction
// of parameter descriptors with at most one per parameter. Parameters
// without a descriptor implicitly take the value "all".
type Descriptor struct {
	pds []ParamDescriptor
}

// NewDescriptor builds a composite descriptor, rejecting repeated
// parameters. An empty descriptor denotes the (all, ..., all) state.
func NewDescriptor(pds ...ParamDescriptor) (Descriptor, error) {
	return DescriptorFrom(append([]ParamDescriptor(nil), pds...))
}

// DescriptorFrom is NewDescriptor for a slice the descriptor takes
// over: the caller must not modify pds afterwards. Parsers that build
// the slice themselves use it to skip the copy.
func DescriptorFrom(pds []ParamDescriptor) (Descriptor, error) {
	// A handful of atoms is checked pairwise, without allocating; a
	// long list, which only outside input can make, through a set.
	if len(pds) > 8 {
		seen := make(map[string]bool, len(pds))
		for _, pd := range pds {
			if seen[pd.Param] {
				return Descriptor{}, repeatedParam(pd.Param)
			}
			seen[pd.Param] = true
		}
		return Descriptor{pds: pds}, nil
	}
	for i := 1; i < len(pds); i++ {
		for _, earlier := range pds[:i] {
			if earlier.Param == pds[i].Param {
				return Descriptor{}, repeatedParam(pds[i].Param)
			}
		}
	}
	return Descriptor{pds: pds}, nil
}

// repeatedParam is the error for a composite descriptor naming a
// parameter twice.
func repeatedParam(param string) error {
	return fmt.Errorf("ctxmodel: composite descriptor repeats parameter %q", param)
}

// MustDescriptor is NewDescriptor that panics on error; for literals in
// tests and examples.
func MustDescriptor(pds ...ParamDescriptor) Descriptor {
	d, err := NewDescriptor(pds...)
	if err != nil {
		panic(err)
	}
	return d
}

// Params returns the constrained parameter names in declaration order.
func (d Descriptor) Params() []string {
	out := make([]string, len(d.pds))
	for i, pd := range d.pds {
		out[i] = pd.Param
	}
	return out
}

// ParamDescriptors returns the component descriptors.
func (d Descriptor) ParamDescriptors() []ParamDescriptor {
	return append([]ParamDescriptor(nil), d.pds...)
}

// allValues is the context of an absent parameter, {all}; shared by
// every expansion and never written.
var allValues = []string{hierarchy.All}

// inlineParams is the environment size up to which Descriptor.Context
// keeps its per-parameter buffers on the stack.
const inlineParams = 8

// Context implements Def. 4: the Cartesian product of the contexts of
// the component descriptors, with {all} for absent parameters, in
// environment parameter order. The result is deterministic: the product
// enumerates the last parameter fastest. The states share one backing
// array, each capped at its own length, so appending to one never
// writes into another.
func (d Descriptor) Context(e *Environment) ([]State, error) {
	n := e.NumParams()
	var perBuf [inlineParams][]string
	var idxBuf [inlineParams]int
	perParam, idx := perBuf[:], idxBuf[:]
	if n > inlineParams {
		perParam, idx = make([][]string, n), make([]int, n)
	}
	perParam, idx = perParam[:n], idx[:n]
	for i := range perParam {
		perParam[i] = allValues
	}
	for _, pd := range d.pds {
		i, ok := e.ParamIndex(pd.Param)
		if !ok {
			return nil, fmt.Errorf("ctxmodel: unknown context parameter %q", pd.Param)
		}
		vals, err := pd.values(e.params[i])
		if err != nil {
			return nil, err
		}
		perParam[i] = vals
	}
	total := 1
	for _, vals := range perParam {
		total *= len(vals)
	}
	out := make([]State, total)
	backing := make([]string, total*n)
	for k := range out {
		s := State(backing[k*n : (k+1)*n : (k+1)*n])
		for i, vals := range perParam {
			s[i] = vals[idx[i]]
		}
		out[k] = s
		// Advance the mixed-radix counter, last parameter fastest.
		for j := n - 1; j >= 0; j-- {
			if idx[j]++; idx[j] < len(perParam[j]) {
				break
			}
			idx[j] = 0
		}
	}
	return out, nil
}

// String renders the composite descriptor as a conjunction.
func (d Descriptor) String() string {
	if len(d.pds) == 0 {
		return "(⊤)"
	}
	parts := make([]string, len(d.pds))
	for i, pd := range d.pds {
		parts[i] = pd.String()
	}
	return "(" + strings.Join(parts, " ∧ ") + ")"
}

// ExtendedDescriptor is an extended context descriptor (Def. 8): a
// disjunction of composite descriptors, as attached to queries.
type ExtendedDescriptor []Descriptor

// Context returns the union of the component contexts with duplicate
// states removed, preserving first-occurrence order.
func (ed ExtendedDescriptor) Context(e *Environment) ([]State, error) {
	var out []State
	seen := make(map[string]bool)
	for _, d := range ed {
		states, err := d.Context(e)
		if err != nil {
			return nil, err
		}
		for _, s := range states {
			k := s.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// String renders the extended descriptor as a disjunction.
func (ed ExtendedDescriptor) String() string {
	if len(ed) == 0 {
		return "(⊤)"
	}
	parts := make([]string, len(ed))
	for i, d := range ed {
		parts[i] = d.String()
	}
	return strings.Join(parts, " ∨ ")
}

// SortStates orders states lexicographically by their components; a
// convenience for deterministic test assertions.
func SortStates(ss []State) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
