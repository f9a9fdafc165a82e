package profiletree

import (
	"context"
	"fmt"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/distance"
	"contextpref/internal/preference"
)

// Sequential is the baseline the paper's performance evaluation
// compares the profile tree against: preferences stored as a flat list
// of (context state, clause, score) records, grouped by state. One
// stored state costs n value cells plus one cell per leaf entry, so the
// total cell count is Σ_states (n + #entries) — for a profile whose
// preferences each produce one state this is |P| × (n+1), matching the
// paper's serial numbers (e.g. 522 × 4 ≈ 2100 cells in Fig. 5).
type Sequential struct {
	env    *ctxmodel.Environment
	states []seqState
	index  map[string]int // state key -> position in states
	prefs  int
}

type seqState struct {
	state   ctxmodel.State
	entries []Leaf
}

// NewSequential creates an empty sequential store.
func NewSequential(env *ctxmodel.Environment) (*Sequential, error) {
	if env == nil {
		return nil, fmt.Errorf("profiletree: nil environment")
	}
	return &Sequential{env: env, index: make(map[string]int)}, nil
}

// Env returns the store's environment.
func (sq *Sequential) Env() *ctxmodel.Environment { return sq.env }

// NumPreferences returns how many preferences were inserted.
func (sq *Sequential) NumPreferences() int { return sq.prefs }

// NumStates returns the number of distinct stored context states.
func (sq *Sequential) NumStates() int { return len(sq.states) }

// NumCells implements the paper's serial cell count.
func (sq *Sequential) NumCells() int {
	total := 0
	for _, s := range sq.states {
		total += len(s.state) + len(s.entries)
	}
	return total
}

// Bytes returns the modeled storage size: every stored value string
// plus each leaf entry's clause text and score. No pointers are charged
// — sequential storage shares nothing but needs no structure.
func (sq *Sequential) Bytes() int {
	total := 0
	for _, s := range sq.states {
		for _, v := range s.state {
			total += len(v)
		}
		for _, e := range s.entries {
			total += leafEntryBytes(e)
		}
	}
	return total
}

// Insert adds every context state of the preference, detecting Def. 6
// conflicts; like Tree.Insert it is atomic and idempotent per
// (state, clause, score).
func (sq *Sequential) Insert(p preference.Preference) error {
	if !(p.Score >= 0 && p.Score <= 1) { // NaN fails both comparisons
		return fmt.Errorf("profiletree: interest score %v outside [0, 1]", p.Score)
	}
	states, err := p.Descriptor.Context(sq.env)
	if err != nil {
		return err
	}
	for _, s := range states {
		if i, ok := sq.index[s.Key()]; ok {
			for _, e := range sq.states[i].entries {
				if e.Clause.Equal(p.Clause) && e.Score != p.Score {
					return &preference.ConflictError{
						New:      p,
						Existing: preference.Preference{Descriptor: p.Descriptor, Clause: e.Clause, Score: e.Score},
						State:    s,
					}
				}
			}
		}
	}
	for _, s := range states {
		i, ok := sq.index[s.Key()]
		if !ok {
			i = len(sq.states)
			sq.states = append(sq.states, seqState{state: s.Clone()})
			sq.index[s.Key()] = i
		}
		dup := false
		for _, e := range sq.states[i].entries {
			if e.Clause.Equal(p.Clause) && e.Score == p.Score {
				dup = true
				break
			}
		}
		if !dup {
			sq.states[i].entries = append(sq.states[i].entries, Leaf{Clause: p.Clause, Score: p.Score})
		}
	}
	sq.prefs++
	return nil
}

// InsertProfile inserts every preference of the profile.
func (sq *Sequential) InsertProfile(pr *preference.Profile) error {
	for i := 0; i < pr.Len(); i++ {
		if err := sq.Insert(pr.Pref(i)); err != nil {
			return err
		}
	}
	return nil
}

// SearchExact scans the store until the matching state is found (the
// paper's sequential exact-match cost model) and returns its entries
// with the number of cells accessed. Scanning a stored state costs its
// full cell size (n values + entries).
func (sq *Sequential) SearchExact(s ctxmodel.State) ([]Leaf, int, error) {
	if err := sq.env.Validate(s); err != nil {
		return nil, 0, err
	}
	accesses := 0
	for _, st := range sq.states {
		accesses += len(st.state) + len(st.entries)
		if st.state.Equal(s) {
			return append([]Leaf(nil), st.entries...), accesses, nil
		}
	}
	return nil, accesses, nil
}

// SearchCover scans the whole store (the paper's non-exact sequential
// cost model) collecting every state that covers s, annotated with its
// metric distance.
func (sq *Sequential) SearchCover(s ctxmodel.State, m distance.Metric) ([]Candidate, int, error) {
	return sq.SearchCoverCtx(context.Background(), s, m)
}

// SearchCoverCtx is SearchCover with cooperative cancellation, on the
// same contract as Tree.SearchCoverCtx: the flat scan consults ctx
// every cancelCheckEvery stored states and aborts with a wrapped
// ctx.Err() once the context is done.
//
//cpvet:scanloop
func (sq *Sequential) SearchCoverCtx(ctx context.Context, s ctxmodel.State, m distance.Metric) ([]Candidate, int, error) {
	if err := sq.env.Validate(s); err != nil {
		return nil, 0, err
	}
	accesses := 0
	var out []Candidate
	for i, st := range sq.states {
		if i&(cancelCheckEvery-1) == cancelCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, accesses, canceled(err)
			}
		}
		accesses += len(st.state) + len(st.entries)
		if !sq.env.Covers(st.state, s) {
			continue
		}
		d, err := m.StateDistance(sq.env, st.state, s)
		if err != nil {
			return nil, accesses, err
		}
		out = append(out, Candidate{
			State:       st.state.Clone(),
			Entries:     append([]Leaf(nil), st.entries...),
			Distance:    d,
			Specificity: specificity(sq.env, st.state),
		})
	}
	return out, accesses, nil
}

// Resolve mirrors Tree.Resolve over the sequential store.
func (sq *Sequential) Resolve(s ctxmodel.State, m distance.Metric) (Candidate, int, bool, error) {
	return sq.ResolveCtx(context.Background(), s, m)
}

// ResolveCtx mirrors Tree.ResolveCtx over the sequential store.
func (sq *Sequential) ResolveCtx(ctx context.Context, s ctxmodel.State, m distance.Metric) (Candidate, int, bool, error) {
	entries, accesses, err := sq.SearchExact(s)
	if err != nil {
		return Candidate{}, 0, false, err
	}
	if len(entries) > 0 {
		return Candidate{State: s.Clone(), Entries: entries, Distance: 0}, accesses, true, nil
	}
	cands, more, err := sq.SearchCoverCtx(ctx, s, m)
	accesses += more
	if err != nil {
		return Candidate{}, accesses, false, err
	}
	best, ok := Best(cands)
	return best, accesses, ok, nil
}

// Delete removes the preference's (clause, score) entry from every
// state its descriptor denotes, dropping states that become empty; it
// mirrors Tree.Delete and returns how many entries were removed.
func (sq *Sequential) Delete(p preference.Preference) (int, error) {
	states, err := p.Descriptor.Context(sq.env)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range states {
		i, ok := sq.index[s.Key()]
		if !ok {
			continue
		}
		entries := sq.states[i].entries
		for e := range entries {
			if entries[e].Clause.Equal(p.Clause) && entries[e].Score == p.Score {
				sq.states[i].entries = append(entries[:e], entries[e+1:]...)
				removed++
				break
			}
		}
		if len(sq.states[i].entries) == 0 {
			sq.dropState(i)
		}
	}
	if removed > 0 {
		sq.prefs--
		if sq.prefs < 0 {
			sq.prefs = 0
		}
	}
	return removed, nil
}

// dropState removes the i-th state, keeping the index consistent.
func (sq *Sequential) dropState(i int) {
	delete(sq.index, sq.states[i].state.Key())
	sq.states = append(sq.states[:i], sq.states[i+1:]...)
	for k := i; k < len(sq.states); k++ {
		sq.index[sq.states[k].state.Key()] = k
	}
}
