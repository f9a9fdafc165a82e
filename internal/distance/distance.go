// Package distance implements the two context-state similarity measures
// of Section 4.3 of "Adding Context to Preferences" (ICDE 2007): the
// hierarchy distance (Defs. 13–15) and the Jaccard distance
// (Defs. 16–17). Both are consistent with the covers partial order
// (Properties 1–3), which the context-resolution algorithm relies on.
package distance

import (
	"fmt"
	"math"

	"contextpref/internal/ctxmodel"
)

// Metric measures how far apart two extended context states are. A
// smaller distance means a better match during context resolution.
// Implementations return +Inf for states that are not comparable under
// the metric (e.g. values on disconnected hierarchy branches for the
// Jaccard metric with empty overlap never happens; the hierarchy metric
// is always finite inside one environment).
type Metric interface {
	// StateDistance returns the distance between s1 and s2 under the
	// environment's hierarchies. It equals the sum of ValueDistance
	// over all parameters (both paper metrics are per-parameter sums),
	// which lets the Search_CS algorithm accumulate the distance level
	// by level while descending the profile tree.
	StateDistance(e *ctxmodel.Environment, s1, s2 ctxmodel.State) (float64, error)
	// ValueDistance returns the distance contribution of the param-th
	// context parameter for values v1 and v2.
	ValueDistance(e *ctxmodel.Environment, param int, v1, v2 string) (float64, error)
	// Name identifies the metric in reports ("hierarchy" or "jaccard").
	Name() string
}

// Hierarchy is the level-based distance of Def. 15: the sum over
// parameters of the level distance (Def. 14) between the levels of the
// two values. On the chain hierarchies of the paper the level distance
// is the absolute difference of level indexes.
type Hierarchy struct{}

// Name implements Metric.
func (Hierarchy) Name() string { return "hierarchy" }

// StateDistance implements Metric.
func (Hierarchy) StateDistance(e *ctxmodel.Environment, s1, s2 ctxmodel.State) (float64, error) {
	l1, err := e.LevelsOf(s1)
	if err != nil {
		return 0, fmt.Errorf("distance: %w", err)
	}
	l2, err := e.LevelsOf(s2)
	if err != nil {
		return 0, fmt.Errorf("distance: %w", err)
	}
	total := 0
	for i := range l1 {
		total += e.Param(i).Hierarchy().LevelDistance(l1[i], l2[i])
	}
	return float64(total), nil
}

// ValueDistance implements Metric: the level distance between the
// levels of the two values (Def. 14).
func (Hierarchy) ValueDistance(e *ctxmodel.Environment, param int, v1, v2 string) (float64, error) {
	h := e.Param(param).Hierarchy()
	l1, ok := h.LevelOf(v1)
	if !ok {
		return 0, fmt.Errorf("distance: value %q not in edom(%s)", v1, e.Param(param).Name())
	}
	l2, ok := h.LevelOf(v2)
	if !ok {
		return 0, fmt.Errorf("distance: value %q not in edom(%s)", v2, e.Param(param).Name())
	}
	return float64(h.LevelDistance(l1, l2)), nil
}

// Jaccard is the distance of Defs. 16–17: per parameter,
// 1 − |desc(v1) ∩ desc(v2)| / |desc(v1) ∪ desc(v2)| over detailed-level
// descendant sets, summed across parameters.
type Jaccard struct{}

// Name implements Metric.
func (Jaccard) Name() string { return "jaccard" }

// StateDistance implements Metric.
func (Jaccard) StateDistance(e *ctxmodel.Environment, s1, s2 ctxmodel.State) (float64, error) {
	if len(s1) != e.NumParams() || len(s2) != e.NumParams() {
		return 0, fmt.Errorf("distance: state arity %d/%d, want %d", len(s1), len(s2), e.NumParams())
	}
	total := 0.0
	for i := range s1 {
		d, err := JaccardValue(e, i, s1[i], s2[i])
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// ValueDistance implements Metric via JaccardValue (Def. 16).
func (Jaccard) ValueDistance(e *ctxmodel.Environment, param int, v1, v2 string) (float64, error) {
	return JaccardValue(e, param, v1, v2)
}

// JaccardValue computes the Def. 16 distance between two values of the
// i-th parameter's hierarchy. Descendant sets are runs of the detailed
// order (hierarchy.Span), so their intersection is the overlap of the
// two runs and |desc(v1) ∪ desc(v2)| = |desc(v1)| + |desc(v2)| − that
// overlap: exact for every pair of values, with no set built.
func JaccardValue(e *ctxmodel.Environment, param int, v1, v2 string) (float64, error) {
	h := e.Param(param).Hierarchy()
	s1, ok := h.SpanOf(v1)
	if !ok {
		return 0, fmt.Errorf("distance: hierarchy %s: unknown value %q", h.Name(), v1)
	}
	s2, ok := h.SpanOf(v2)
	if !ok {
		return 0, fmt.Errorf("distance: hierarchy %s: unknown value %q", h.Name(), v2)
	}
	inter := s1.Overlap(s2)
	union := s1.Len() + s2.Len() - inter
	if union == 0 {
		// Cannot happen for well-formed hierarchies: every value has at
		// least one detailed descendant.
		return math.Inf(1), nil
	}
	return 1 - float64(inter)/float64(union), nil
}

// ByName returns the metric with the given name.
func ByName(name string) (Metric, error) {
	switch name {
	case "hierarchy":
		return Hierarchy{}, nil
	case "jaccard":
		return Jaccard{}, nil
	}
	return nil, fmt.Errorf("distance: unknown metric %q (want hierarchy or jaccard)", name)
}

// All returns every available metric, for experiments that sweep them.
func All() []Metric { return []Metric{Hierarchy{}, Jaccard{}} }
