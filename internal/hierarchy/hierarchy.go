// Package hierarchy implements multidimensional attribute hierarchies as
// defined in Section 3.1 of "Adding Context to Preferences" (Stefanidis,
// Pitoura, Vassiliadis — ICDE 2007).
//
// A hierarchy is a chain of levels L1 ≺ L2 ≺ ... ≺ ALL where L1 is the
// detailed level and ALL is the single top level whose only value is
// "all". Values of adjacent levels are related through ancestor (anc)
// functions; anc functions across non-adjacent levels are obtained by
// composition, and desc functions are their inverses.
//
// The paper allows a general lattice of levels; every hierarchy used in
// the paper (location, temperature, accompanying_people, and the
// synthetic ones in the evaluation) is a chain, and the level-distance
// metric of Def. 14 (minimum path length) degenerates to the absolute
// difference of level indexes on a chain. This package therefore
// implements chains of levels over tree-structured value sets, which is
// exactly the structure every experiment in the paper exercises.
package hierarchy

import (
	"fmt"
	"sort"
	"strings"
)

// All is the unique value of the ALL level of every hierarchy.
const All = "all"

// LevelAll is the conventional name of the top level of every hierarchy.
const LevelAll = "ALL"

// Hierarchy is an immutable chain of levels over a tree of values. The
// detailed level has index 0 and the ALL level has index NumLevels()-1.
// Build one with a Builder; the zero Hierarchy is not usable.
type Hierarchy struct {
	name   string
	levels []string // level names, detailed first, LevelAll last

	levelIndex map[string]int   // level name -> index
	places     map[string]place // value -> span and rank, in one lookup
	parent     map[string]string
	children   map[string][]string // value -> ordered children (next level down)
	valuesAt   [][]string          // per level, values in insertion order
}

// place is a value's entry in the hierarchy's value index: its span
// and its rank, the position within its level's total order, so that
// valuesAt[Level][rank] is the value.
type place struct {
	Span
	rank int32
}

// Name returns the hierarchy's name (usually the context parameter name).
func (h *Hierarchy) Name() string { return h.name }

// Levels returns the level names from the detailed level up to ALL.
func (h *Hierarchy) Levels() []string {
	out := make([]string, len(h.levels))
	copy(out, h.levels)
	return out
}

// NumLevels returns the number of levels, including ALL.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// LevelName returns the name of the level with the given index.
func (h *Hierarchy) LevelName(i int) string { return h.levels[i] }

// LevelIndex returns the index of the named level, detailed = 0.
func (h *Hierarchy) LevelIndex(name string) (int, bool) {
	i, ok := h.levelIndex[name]
	return i, ok
}

// Contains reports whether v belongs to the extended domain of the
// hierarchy, i.e. to the domain of any level including ALL.
func (h *Hierarchy) Contains(v string) bool {
	_, ok := h.places[v]
	return ok
}

// LevelOf returns the index of the level the value belongs to.
func (h *Hierarchy) LevelOf(v string) (int, bool) {
	pl, ok := h.places[v]
	return int(pl.Level), ok
}

// Span is a value's place in the interval encoding of its hierarchy:
// its level index and the run [Lo, Hi) of detailed-level ranks its
// descendants occupy. Monotone anc functions (condition 3, checked by
// Build) make every desc set a contiguous run of the detailed order, so
// the run names desc(v) exactly and Hi-Lo = |desc(v)|.
//
// Profile trees keep one Span per cell, so its fields are 32-bit.
type Span struct {
	// Level is the value's level index, detailed = 0.
	Level int32
	// Lo and Hi bound the run: desc(v) holds the detailed values of
	// ranks Lo through Hi-1.
	Lo, Hi int32
}

// Len returns |desc(v)|, the number of detailed descendants.
func (s Span) Len() int { return int(s.Hi - s.Lo) }

// Covers reports whether the value spanned by s equals or is an
// ancestor of the value spanned by o: it sits at the same or a higher
// level and its descendants include o's. Same-level runs are disjoint,
// so at equal levels containment means equality.
func (s Span) Covers(o Span) bool {
	return s.Level >= o.Level && s.Lo <= o.Lo && o.Hi <= s.Hi
}

// Overlap returns |desc(s) ∩ desc(o)|, the length of the intersection
// of the two runs.
func (s Span) Overlap(o Span) int {
	return int(max(0, min(s.Hi, o.Hi)-max(s.Lo, o.Lo)))
}

// SpanOf returns the value's interval-encoding record.
func (h *Hierarchy) SpanOf(v string) (Span, bool) {
	pl, ok := h.places[v]
	return pl.Span, ok
}

// Canonical returns the hierarchy's own copy of the value, equal to v,
// and its span. A caller that keeps the copy instead of v, as a profile
// tree does for its cell keys, keeps no reference to the text v was
// cut from.
func (h *Hierarchy) Canonical(v string) (string, Span, bool) {
	pl, ok := h.places[v]
	if !ok {
		return "", Span{}, false
	}
	return h.valuesAt[pl.Level][pl.rank], pl.Span, true
}

// Place returns the value's level index and its rank within the level,
// the pair that names it in the hierarchy, in one lookup.
func (h *Hierarchy) Place(v string) (level, rank int, ok bool) {
	pl, ok := h.places[v]
	return int(pl.Level), int(pl.rank), ok
}

// ValueAt returns the hierarchy's own copy of the value that Place
// names by (level, rank), and false when no value sits there.
func (h *Hierarchy) ValueAt(level, rank int) (string, bool) {
	if level < 0 || level >= len(h.valuesAt) || rank < 0 || rank >= len(h.valuesAt[level]) {
		return "", false
	}
	return h.valuesAt[level][rank], true
}

// ValuesAt returns the domain of the level with index i, in the total
// order of the level.
func (h *Hierarchy) ValuesAt(i int) []string {
	out := make([]string, len(h.valuesAt[i]))
	copy(out, h.valuesAt[i])
	return out
}

// DetailedValues returns dom(C), the domain of the detailed level.
func (h *Hierarchy) DetailedValues() []string { return h.ValuesAt(0) }

// ExtendedDomainSize returns |edom(C)|, the total number of values
// across all levels including "all".
func (h *Hierarchy) ExtendedDomainSize() int { return len(h.places) }

// ExtendedDomain returns every value of every level, detailed level
// first, ALL last.
func (h *Hierarchy) ExtendedDomain() []string {
	out := make([]string, 0, len(h.places))
	for i := range h.levels {
		out = append(out, h.valuesAt[i]...)
	}
	return out
}

// Parent returns anc to the immediately higher level. The parent of a
// value of the level below ALL is "all"; "all" has no parent.
func (h *Hierarchy) Parent(v string) (string, bool) {
	p, ok := h.parent[v]
	return p, ok
}

// Children returns the desc set of v at the immediately lower level, in
// level order. Values of the detailed level have no children.
func (h *Hierarchy) Children(v string) []string {
	ch := h.children[v]
	out := make([]string, len(ch))
	copy(out, ch)
	return out
}

// Anc implements the anc_{Lj}^{Li} functions of the paper composed up to
// the target level: it maps v to its ancestor at level index target.
// It returns an error if v is unknown or target is below v's own level.
// Anc(v, level(v)) is v itself (the identity composition).
func (h *Hierarchy) Anc(v string, target int) (string, error) {
	lv, ok := h.LevelOf(v)
	if !ok {
		return "", fmt.Errorf("hierarchy %s: unknown value %q", h.name, v)
	}
	if target < lv || target >= len(h.levels) {
		return "", fmt.Errorf("hierarchy %s: no anc of %q (level %s) at level index %d",
			h.name, v, h.levels[lv], target)
	}
	for lv < target {
		v = h.parent[v]
		lv++
	}
	return v, nil
}

// DescAt returns the desc set of v at the given lower (or equal) level
// index, in level order. DescAt(v, level(v)) is {v}.
func (h *Hierarchy) DescAt(v string, target int) ([]string, error) {
	lv, ok := h.LevelOf(v)
	if !ok {
		return nil, fmt.Errorf("hierarchy %s: unknown value %q", h.name, v)
	}
	if target > lv || target < 0 {
		return nil, fmt.Errorf("hierarchy %s: no desc of %q (level %s) at level index %d",
			h.name, v, h.levels[lv], target)
	}
	frontier := []string{v}
	for l := lv; l > target; l-- {
		next := make([]string, 0, len(frontier)*2)
		for _, f := range frontier {
			next = append(next, h.children[f]...)
		}
		frontier = next
	}
	return frontier, nil
}

// Descendants returns the desc set of v at the detailed level. For a
// detailed value it is the singleton {v}; for "all" it is the whole
// detailed domain.
func (h *Hierarchy) Descendants(v string) ([]string, error) {
	return h.DescAt(v, 0)
}

// IsAncestorOrSelf reports whether a = v or a is an ancestor of v at
// some higher level (a = anc(v) for some pair of levels). This is the
// per-parameter ingredient of the covers relation (Def. 10), answered
// from the interval encoding without walking anc.
func (h *Hierarchy) IsAncestorOrSelf(a, v string) bool {
	sa, ok := h.places[a]
	if !ok {
		return false
	}
	sv, ok := h.places[v]
	return ok && sa.Covers(sv.Span)
}

// Ancestors returns v followed by each of its ancestors up to and
// including "all", ordered from v's own level upward.
func (h *Hierarchy) Ancestors(v string) ([]string, error) {
	lv, ok := h.LevelOf(v)
	if !ok {
		return nil, fmt.Errorf("hierarchy %s: unknown value %q", h.name, v)
	}
	out := make([]string, 0, len(h.levels)-lv)
	out = append(out, v)
	for v != All {
		v = h.parent[v]
		out = append(out, v)
	}
	return out, nil
}

// LevelDistance implements Def. 14: the minimum number of edges between
// two levels of the chain, i.e. the absolute difference of their indexes.
func (h *Hierarchy) LevelDistance(i, j int) int {
	if i > j {
		return i - j
	}
	return j - i
}

// Rank returns the position of v within the total order of its level.
// The detailed-level order is the insertion order of the builder, and
// higher-level orders are induced by it (condition 3 of the paper:
// the anc functions are monotone).
func (h *Hierarchy) Rank(v string) (int, bool) {
	pl, ok := h.places[v]
	return int(pl.rank), ok
}

// Range returns the values x of v1's level with v1 <= x <= v2 in the
// level's total order, implementing range descriptors (Def. 1, case 3).
// Both endpoints must belong to the same level.
func (h *Hierarchy) Range(v1, v2 string) ([]string, error) {
	p1, ok1 := h.places[v1]
	p2, ok2 := h.places[v2]
	l1, l2 := int(p1.Level), int(p2.Level)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("hierarchy %s: unknown range endpoint in [%s, %s]", h.name, v1, v2)
	}
	if l1 != l2 {
		return nil, fmt.Errorf("hierarchy %s: range endpoints %q (level %s) and %q (level %s) belong to different levels",
			h.name, v1, h.levels[l1], v2, h.levels[l2])
	}
	r1, r2 := p1.rank, p2.rank
	if r1 > r2 {
		return nil, fmt.Errorf("hierarchy %s: empty range [%s, %s]: %q follows %q in the level order",
			h.name, v1, v2, v1, v2)
	}
	vals := h.valuesAt[l1]
	out := make([]string, 0, r2-r1+1)
	out = append(out, vals[r1:r2+1]...)
	return out, nil
}

// String renders a compact description of the hierarchy.
func (h *Hierarchy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(", h.name)
	for i, l := range h.levels {
		if i > 0 {
			b.WriteString(" ≺ ")
		}
		fmt.Fprintf(&b, "%s[%d]", l, len(h.valuesAt[i]))
	}
	b.WriteString(")")
	return b.String()
}

// Builder assembles a Hierarchy from root-to-leaf value paths.
type Builder struct {
	name   string
	levels []string // detailed first, excluding ALL
	paths  [][]string
	err    error
}

// NewBuilder starts a hierarchy with the given non-ALL level names
// ordered from the detailed level upward. ALL is appended automatically.
func NewBuilder(name string, levels ...string) *Builder {
	b := &Builder{name: name, levels: append([]string(nil), levels...)}
	if name == "" {
		b.err = fmt.Errorf("hierarchy: empty name")
	}
	if len(levels) == 0 {
		b.err = fmt.Errorf("hierarchy %s: at least one non-ALL level required", name)
	}
	seen := map[string]bool{LevelAll: true}
	for _, l := range levels {
		if l == "" || seen[l] {
			b.err = fmt.Errorf("hierarchy %s: invalid or duplicate level name %q", name, l)
		}
		seen[l] = true
	}
	return b
}

// Add registers one full path of values from the detailed level upward,
// excluding "all" (e.g. Add("Plaka", "Athens", "Greece") for levels
// Region, City, Country). Paths sharing a prefix of upper-level values
// must agree on them; the detailed value must be fresh. The insertion
// order of detailed values defines the total order of the detailed
// level and must be consistent with the grouping so that anc functions
// are monotone (validated by Build).
func (b *Builder) Add(path ...string) *Builder {
	if b.err != nil {
		return b
	}
	if len(path) != len(b.levels) {
		b.err = fmt.Errorf("hierarchy %s: path %v has %d values, want %d (levels %v)",
			b.name, path, len(path), len(b.levels), b.levels)
		return b
	}
	for _, v := range path {
		if v == "" || v == All {
			b.err = fmt.Errorf("hierarchy %s: invalid value %q in path %v", b.name, v, path)
			return b
		}
	}
	b.paths = append(b.paths, append([]string(nil), path...))
	return b
}

// Build validates the accumulated paths and returns the hierarchy.
func (b *Builder) Build() (*Hierarchy, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.paths) == 0 {
		return nil, fmt.Errorf("hierarchy %s: no values", b.name)
	}
	n := len(b.levels) + 1
	h := &Hierarchy{
		name:       b.name,
		levels:     append(append([]string(nil), b.levels...), LevelAll),
		levelIndex: make(map[string]int, n),
		places:     make(map[string]place),
		parent:     make(map[string]string),
		children:   make(map[string][]string),
		valuesAt:   make([][]string, n),
	}
	for i, l := range h.levels {
		h.levelIndex[l] = i
	}
	h.places[All] = place{Span: Span{Level: int32(n - 1)}}
	h.valuesAt[n-1] = []string{All}

	for _, path := range b.paths {
		// path[0] is detailed; path[len-1] is just below ALL.
		for i, v := range path {
			wantParent := All
			if i+1 < len(path) {
				wantParent = path[i+1]
			}
			if lv, ok := h.LevelOf(v); ok {
				if lv != i {
					return nil, fmt.Errorf("hierarchy %s: value %q appears at levels %s and %s",
						b.name, v, h.levels[lv], h.levels[i])
				}
				if h.parent[v] != wantParent {
					return nil, fmt.Errorf("hierarchy %s: value %q has conflicting parents %q and %q",
						b.name, v, h.parent[v], wantParent)
				}
				if i == 0 {
					return nil, fmt.Errorf("hierarchy %s: duplicate detailed value %q", b.name, v)
				}
				continue
			}
			h.places[v] = place{Span: Span{Level: int32(i)}, rank: int32(len(h.valuesAt[i]))}
			h.parent[v] = wantParent
			h.valuesAt[i] = append(h.valuesAt[i], v)
			h.children[wantParent] = append(h.children[wantParent], v)
		}
	}
	if err := h.validateMonotone(); err != nil {
		return nil, err
	}
	h.encodeIntervals()
	return h, nil
}

// encodeIntervals fills in each value's run of detailed ranks: a
// detailed value spans its own rank, and a higher value spans from its
// first child's run to its last child's. Children are recorded in rank
// order and, anc being monotone, form a contiguous run of their level,
// so the union of their runs is contiguous too.
func (h *Hierarchy) encodeIntervals() {
	for r, v := range h.valuesAt[0] {
		h.places[v] = place{Span: Span{Level: 0, Lo: int32(r), Hi: int32(r + 1)}, rank: int32(r)}
	}
	for l := 1; l < len(h.levels); l++ {
		for r, v := range h.valuesAt[l] {
			ch := h.children[v]
			h.places[v] = place{Span: Span{Level: int32(l), Lo: h.places[ch[0]].Lo, Hi: h.places[ch[len(ch)-1]].Hi}, rank: int32(r)}
		}
	}
}

// validateMonotone checks condition 3 of the paper: for x < y in the
// order of a level, anc(x) <= anc(y) one level up. On a chain of levels
// with tree-structured values this is equivalent to every parent's
// children forming a contiguous run of the child level's order.
func (h *Hierarchy) validateMonotone() error {
	for l := 0; l < len(h.levels)-1; l++ {
		prevParentRank := -1
		for _, v := range h.valuesAt[l] {
			pr := int(h.places[h.parent[v]].rank)
			if pr < prevParentRank {
				return fmt.Errorf("hierarchy %s: anc is not monotone at level %s: value %q breaks the order",
					h.name, h.levels[l], v)
			}
			prevParentRank = pr
		}
	}
	return nil
}

// Uniform builds a synthetic hierarchy for the performance experiments:
// fanouts[i] is the number of children each value of level i+1 has, so
// the detailed level has the product of all fanouts values. Level names
// are "L1".."Lk" plus ALL and values are name:l<level>:v<index>.
// A single fanout of m produces a flat hierarchy of m detailed values.
func Uniform(name string, fanouts ...int) (*Hierarchy, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("hierarchy %s: no fanouts", name)
	}
	levels := make([]string, len(fanouts))
	for i := range fanouts {
		if fanouts[i] < 1 {
			return nil, fmt.Errorf("hierarchy %s: fanout %d < 1", name, fanouts[i])
		}
		levels[i] = fmt.Sprintf("L%d", i+1)
	}
	b := NewBuilder(name, levels...)
	total := 1
	for _, f := range fanouts {
		total *= f
	}
	for i := 0; i < total; i++ {
		path := make([]string, len(fanouts))
		group := i
		for l := 0; l < len(fanouts); l++ {
			path[l] = fmt.Sprintf("%s:l%d:v%d", name, l+1, group)
			group /= fanouts[l]
		}
		b.Add(path...)
	}
	return b.Build()
}

// SortedCopy returns the values sorted lexicographically; a convenience
// for tests and deterministic rendering.
func SortedCopy(vs []string) []string {
	out := make([]string, len(vs))
	copy(out, vs)
	sort.Strings(out)
	return out
}
