package relation

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
)

// Column describes one attribute of a schema.
type Column struct {
	// Name is the attribute name (unique within the schema).
	Name string
	// Kind is the attribute's value type.
	Kind Kind
}

// Schema is an ordered set of typed columns with a relation name.
type Schema struct {
	name  string
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema, rejecting empty or duplicate column names.
func NewSchema(name string, cols ...Column) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty schema name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: schema %s has no columns", name)
	}
	s := &Schema{name: name, cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: schema %s: empty column name at %d", name, i)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("relation: schema %s: duplicate column %q", name, c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// ColIndex returns the position of the named column.
func (s *Schema) ColIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// String renders "name(col kind, ...)".
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return s.name + "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row; values are in schema column order.
type Tuple []Value

// Relation is an append-only in-memory table, optionally with hash
// indexes on equality columns (see CreateIndex).
type Relation struct {
	schema  *Schema
	tuples  []Tuple
	indexes []*index
}

// New creates an empty relation over the schema.
func New(schema *Schema) *Relation { return &Relation{schema: schema} }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Insert appends a tuple after validating arity and column kinds, and
// returns its index.
func (r *Relation) Insert(vals ...Value) (int, error) {
	if len(vals) != len(r.schema.cols) {
		return 0, fmt.Errorf("relation %s: tuple arity %d, want %d", r.schema.name, len(vals), len(r.schema.cols))
	}
	for i, v := range vals {
		if v.Kind() != r.schema.cols[i].Kind {
			return 0, fmt.Errorf("relation %s: column %s expects %s, got %s",
				r.schema.name, r.schema.cols[i].Name, r.schema.cols[i].Kind, v.Kind())
		}
	}
	r.tuples = append(r.tuples, append(Tuple(nil), vals...))
	idx := len(r.tuples) - 1
	for _, ix := range r.indexes {
		ix.buckets[vals[ix.col]] = append(ix.buckets[vals[ix.col]], idx)
	}
	return idx, nil
}

// Tuple returns the i-th tuple. The returned slice must not be mutated.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Value returns the named column of the i-th tuple.
func (r *Relation) Value(i int, col string) (Value, error) {
	ci, ok := r.schema.index[col]
	if !ok {
		return Value{}, fmt.Errorf("relation %s: unknown column %q", r.schema.name, col)
	}
	return r.tuples[i][ci], nil
}

// Predicate is a simple selection condition "col θ value".
type Predicate struct {
	// Col names the column the predicate tests.
	Col string
	// Op is the comparison operator.
	Op CmpOp
	// Val is the constant compared against.
	Val Value
}

// String renders the predicate.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Val)
}

// Eval tests the predicate against a tuple of the schema.
func (p Predicate) Eval(s *Schema, t Tuple) (bool, error) {
	ci, ok := s.ColIndex(p.Col)
	if !ok {
		return false, fmt.Errorf("relation %s: unknown column %q", s.name, p.Col)
	}
	return p.Op.Eval(t[ci], p.Val)
}

// Select returns the indexes of tuples satisfying every predicate
// (σ of the relational algebra, restricted to conjunctions of simple
// comparisons — all Algorithm 2 needs). An equality predicate over an
// indexed column answers from its hash bucket; otherwise the relation
// is scanned. Results are identical either way and always in tuple
// order.
func (r *Relation) Select(preds ...Predicate) ([]int, error) {
	return r.SelectCtx(context.Background(), preds...)
}

// selectCheckEvery is the cooperative-cancellation granularity of the
// relation scan: ctx.Err() is consulted once per this many tuples. It
// must be a power of two.
const selectCheckEvery = 256

// SelectCtx is Select with cooperative cancellation: the full-relation
// scan consults ctx every selectCheckEvery tuples and aborts with a
// wrapped ctx.Err() once the context is done, so a server deadline or
// a departed client stops a large scan early. The indexed path reads
// one bucket and is not gated.
//
//cpvet:scanloop
func (r *Relation) SelectCtx(ctx context.Context, preds ...Predicate) ([]int, error) {
	// Validate predicates up front so the indexed and scanning paths
	// reject malformed queries identically, independent of data.
	for _, p := range preds {
		ci, ok := r.schema.ColIndex(p.Col)
		if !ok {
			return nil, fmt.Errorf("relation %s: unknown column %q", r.schema.name, p.Col)
		}
		if p.Val.Kind() != r.schema.cols[ci].Kind {
			return nil, fmt.Errorf("relation %s: cannot compare %s with %s",
				r.schema.name, r.schema.cols[ci].Kind, p.Val.Kind())
		}
	}
	if out, ok, err := r.selectIndexed(preds); err != nil {
		return nil, err
	} else if ok {
		return out, nil
	}
	var out []int
	for i, t := range r.tuples {
		if i&(selectCheckEvery-1) == selectCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("relation %s: scan stopped: %w", r.schema.name, err)
			}
		}
		match := true
		for _, p := range preds {
			ok, err := p.Eval(r.schema, t)
			if err != nil {
				return nil, err
			}
			if !ok {
				match = false
				break
			}
		}
		if match {
			out = append(out, i)
		}
	}
	return out, nil
}

// Combiner merges the scores of a tuple matched by several scored
// selections, per the Rank_CS remark ("keeping the max (equivalently,
// avg, min ...)").
type Combiner int

const (
	// CombineMax keeps the maximum score.
	CombineMax Combiner = iota
	// CombineMin keeps the minimum score.
	CombineMin
	// CombineAvg averages the scores.
	CombineAvg
)

// String names the combiner.
func (c Combiner) String() string {
	switch c {
	case CombineMax:
		return "max"
	case CombineMin:
		return "min"
	case CombineAvg:
		return "avg"
	}
	return fmt.Sprintf("Combiner(%d)", int(c))
}

// Combine reduces a non-empty score list.
func (c Combiner) Combine(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	switch c {
	case CombineMin:
		m := scores[0]
		for _, s := range scores[1:] {
			if s < m {
				m = s
			}
		}
		return m
	case CombineAvg:
		sum := 0.0
		for _, s := range scores {
			sum += s
		}
		return sum / float64(len(scores))
	default: // CombineMax
		m := scores[0]
		for _, s := range scores[1:] {
			if s > m {
				m = s
			}
		}
		return m
	}
}

// ScoredTuple is a tuple index annotated with its interest score.
type ScoredTuple struct {
	// Index is the tuple's position in the relation.
	Index int
	// Tuple is the row itself.
	Tuple Tuple
	// Score is the combined interest score in [0, 1].
	Score float64
}

// ResultSet accumulates scored tuple matches and ranks them.
type ResultSet struct {
	rel *Relation
	// matches holds every Add in call order. Ranking stable-sorts it by
	// tuple index, so each tuple's scores form one run still in the
	// order they were added.
	matches []match
}

// match is one Add: tuple idx matched a preference with this score.
type match struct {
	idx   int
	score float64
}

// NewResultSet creates an empty result set over a relation.
func NewResultSet(rel *Relation) *ResultSet {
	return &ResultSet{rel: rel}
}

// Add records that tuple idx matched a preference with the given score.
func (rs *ResultSet) Add(idx int, score float64) {
	rs.matches = append(rs.matches, match{idx, score})
}

// Len returns the number of distinct tuples in the result set.
func (rs *ResultSet) Len() int {
	rs.group()
	return rs.distinct()
}

// group stable-sorts the matches by tuple index, so each tuple's scores
// form one run, still in the order they were added.
func (rs *ResultSet) group() {
	slices.SortStableFunc(rs.matches, func(a, b match) int { return cmp.Compare(a.idx, b.idx) })
}

// distinct counts the runs of grouped matches.
func (rs *ResultSet) distinct() int {
	n := 0
	for i := range rs.matches {
		if i == 0 || rs.matches[i].idx != rs.matches[i-1].idx {
			n++
		}
	}
	return n
}

// Ranked returns the distinct tuples ordered by combined score
// descending; ties break by tuple index ascending so results are
// deterministic. Each tuple's scores reach the combiner in the order
// they were added.
func (rs *ResultSet) Ranked(c Combiner) []ScoredTuple {
	rs.group()
	out := make([]ScoredTuple, 0, rs.distinct())
	var buf [16]float64
	scores := buf[:0]
	for i, m := range rs.matches {
		scores = append(scores, m.score)
		if i+1 < len(rs.matches) && rs.matches[i+1].idx == m.idx {
			continue
		}
		out = append(out, ScoredTuple{Index: m.idx, Tuple: rs.rel.Tuple(m.idx), Score: c.Combine(scores)})
		scores = scores[:0]
	}
	slices.SortFunc(out, func(a, b ScoredTuple) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Index, b.Index))
	})
	return out
}

// Top returns the best k tuples under the combiner, extended past k
// only to include tuples tied with the k-th score, matching the
// usability study's "when there are ties in the ranking, we consider
// all results with the same score".
func (rs *ResultSet) Top(k int, c Combiner) []ScoredTuple {
	ranked := rs.Ranked(c)
	if k <= 0 || len(ranked) <= k {
		return ranked
	}
	cut := k
	for cut < len(ranked) && ranked[cut].Score == ranked[k-1].Score {
		cut++
	}
	return ranked[:cut]
}
