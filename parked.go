package contextpref

// This file is the parked form of a profile (SafeSystem.parked): its
// add and remove records, each an op byte followed by the preference's
// binary encoding from internal/preference. Replay writes the form from
// the journal, tryPark from a resident tree, and an unpark or a
// compaction reads it back.

import (
	"contextpref/internal/ctxmodel"
	"contextpref/internal/hierarchy"
	"contextpref/internal/journal"
	"contextpref/internal/preference"
)

// applyParked applies records in parked form to a resident system, in
// order, decoding each without text parsing. It returns how many
// records applied — all of them unless err reports the one that failed
// — and whether any was a remove.
func applyParked(sys *System, parked []byte) (n int, removes bool, err error) {
	dec := preference.NewDecoder(sys.env)
	// The decoded clauses' strings are substrings of this copy, and the
	// tree copies what it keeps of them.
	text := string(parked)
	for ; text != ""; n++ {
		op := journal.Op(text[0])
		var p Preference
		if p, text, err = dec.Decode(text[1:]); err != nil {
			return n, removes, err
		}
		if err = applyPref(sys, op, p); err != nil {
			return n, removes, err
		}
		removes = removes || op == journal.OpRemove
	}
	return n, removes, nil
}

// parkedForm encodes the system's stored entries as add records, one
// per entry and in the order Tree.Encode renders them: the preference
// of each is the entry's clause and score under an eq-descriptor of its
// state's non-"all" values.
func (s *System) parkedForm() ([]byte, error) {
	var out []byte
	pds := make([]ctxmodel.ParamDescriptor, 0, s.env.NumParams())
	for _, path := range s.tree.SortedPaths() {
		pds = pds[:0]
		for i, v := range path.State {
			if v != hierarchy.All {
				pds = append(pds, ctxmodel.ParamDescriptor{Param: s.env.Param(i).Name(), Kind: ctxmodel.KindEq, Values: path.State[i : i+1 : i+1]})
			}
		}
		// The descriptor lives in pds, which the next path reuses once
		// this one's entries are encoded.
		d, err := ctxmodel.DescriptorFrom(pds)
		if err != nil {
			return nil, err
		}
		for _, e := range path.Entries {
			out = append(out, byte(journal.OpAdd))
			if out, err = preference.AppendBinary(out, s.env, Preference{Descriptor: d, Clause: e.Clause, Score: e.Score}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// parkedRecords renders records in parked form as journal records of
// the user, each line by FormatPreference.
func parkedRecords(env *Environment, user string, parked []byte) ([]journal.Record, error) {
	var recs []journal.Record
	dec := preference.NewDecoder(env)
	for text := string(parked); text != ""; {
		op := journal.Op(text[0])
		p, rest, err := dec.Decode(text[1:])
		if err != nil {
			return nil, err
		}
		recs = append(recs, journal.Record{Op: op, User: user, Line: FormatPreference(p)})
		text = rest
	}
	return recs, nil
}
