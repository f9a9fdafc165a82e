package preference

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/relation"
)

// This file implements a line-oriented text encoding of contextual
// preferences used by the CLI and for persisting profiles:
//
//	[location = Plaka; temperature in {warm, hot}] => name = "Acropolis" : 0.8
//	[accompanying_people = friends] => type = brewery : 0.9
//	[] => type = museum : 0.5
//
// Descriptor atoms are separated by ';' and take one of the forms
// "param = value", "param in {v1, v2, ...}" and
// "param between lo, hi". Clause values are typed by inference: quoted
// text is a string, true/false are booleans, integer literals are ints,
// decimal literals are floats, anything else is a string.

// FormatValue renders a clause value so InferValue can read it back.
func FormatValue(v relation.Value) string {
	switch v.Kind() {
	case relation.KindString:
		return strconv.Quote(v.Str())
	case relation.KindFloat:
		s := v.String()
		// Keep a decimal marker so InferValue does not read it as int.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// InferValue parses a clause value with type inference.
func InferValue(text string) (relation.Value, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return relation.Value{}, fmt.Errorf("preference: empty value")
	}
	if strings.HasPrefix(text, "\"") {
		s, err := strconv.Unquote(text)
		if err != nil {
			return relation.Value{}, fmt.Errorf("preference: bad quoted value %s: %w", text, err)
		}
		return relation.S(s), nil
	}
	switch text {
	case "true":
		return relation.B(true), nil
	case "false":
		return relation.B(false), nil
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return relation.I(i), nil
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return relation.F(f), nil
	}
	return relation.S(text), nil
}

// Format renders the preference in the line encoding.
func Format(p Preference) string {
	var atoms []string
	for i := range p.Descriptor.NumAtoms() {
		switch pd := p.Descriptor.Atom(i); pd.Kind {
		case ctxmodel.KindEq:
			atoms = append(atoms, fmt.Sprintf("%s = %s", pd.Param, pd.Values[0]))
		case ctxmodel.KindIn:
			atoms = append(atoms, fmt.Sprintf("%s in {%s}", pd.Param, strings.Join(pd.Values, ", ")))
		case ctxmodel.KindRange:
			atoms = append(atoms, fmt.Sprintf("%s between %s, %s", pd.Param, pd.Values[0], pd.Values[1]))
		}
	}
	return fmt.Sprintf("[%s] => %s %s %s : %g",
		strings.Join(atoms, "; "), p.Clause.Attr, p.Clause.Op, FormatValue(p.Clause.Val), p.Score)
}

// ParseParamDescriptor reads one descriptor atom. The three forms are
// distinguished by whichever operator ("=", " in ", " between ")
// appears first, so values that happen to contain a later operator word
// still round-trip (e.g. "p = a in b" is an eq-descriptor). Param names
// must not contain whitespace: a spaced param ("0 in" from "0 in=0")
// would make the operator that wins depend on the spacing Format
// chooses, so the formatted line would re-parse as a different form.
func ParseParamDescriptor(text string) (ctxmodel.ParamDescriptor, error) {
	pd, _, err := parseAtom(text, nil)
	if err != nil {
		return ctxmodel.ParamDescriptor{}, err
	}
	return pd, nil
}

// parseAtom is ParseParamDescriptor appending the atom's values to vals,
// which it returns grown: the atom's Values alias that array, capped at
// their own length. A line's atoms share one values array this way. On
// error the returned descriptor is incomplete.
func parseAtom(text string, vals []string) (ctxmodel.ParamDescriptor, []string, error) {
	text = strings.TrimSpace(text)
	eqAt, inAt, betweenAt := opAt(text, "="), opAt(text, " in "), opAt(text, " between ")
	var pd ctxmodel.ParamDescriptor
	var err error
	start := len(vals)
	switch {
	case eqAt < inAt && eqAt < betweenAt:
		pd.Kind = ctxmodel.KindEq
		if pd.Param, err = atomParam(text[:eqAt], text); err != nil {
			return pd, vals, err
		}
		val := strings.TrimSpace(text[eqAt+1:])
		if pd.Param == "" || val == "" {
			return pd, vals, fmt.Errorf("preference: malformed eq-descriptor %q", text)
		}
		vals = append(vals, val)
	case inAt < betweenAt:
		pd.Kind = ctxmodel.KindIn
		if pd.Param, err = atomParam(text[:inAt], text); err != nil {
			return pd, vals, err
		}
		rest := strings.TrimSpace(text[inAt+len(" in "):])
		if !strings.HasPrefix(rest, "{") || !strings.HasSuffix(rest, "}") {
			return pd, vals, fmt.Errorf("preference: malformed in-descriptor %q", text)
		}
		for list, more := rest[1:len(rest)-1], true; more; {
			var v string
			v, list, more = strings.Cut(list, ",")
			if v = strings.TrimSpace(v); v == "" {
				return pd, vals, fmt.Errorf("preference: empty value in %q", text)
			}
			vals = append(vals, v)
		}
	case betweenAt < len(text):
		pd.Kind = ctxmodel.KindRange
		if pd.Param, err = atomParam(text[:betweenAt], text); err != nil {
			return pd, vals, err
		}
		lo, hi, ok := strings.Cut(text[betweenAt+len(" between "):], ",")
		if !ok || strings.Contains(hi, ",") {
			return pd, vals, fmt.Errorf("preference: malformed between-descriptor %q", text)
		}
		lo, hi = strings.TrimSpace(lo), strings.TrimSpace(hi)
		if lo == "" || hi == "" {
			return pd, vals, fmt.Errorf("preference: empty endpoint in %q", text)
		}
		vals = append(vals, lo, hi)
	default:
		return pd, vals, fmt.Errorf("preference: cannot parse descriptor atom %q", text)
	}
	pd.Values = vals[start:len(vals):len(vals)]
	return pd, vals, nil
}

// opAt is the index of op's first occurrence in text, or len(text) when
// it is absent or leads the text (an operator needs a param before it).
func opAt(text, op string) int {
	if i := strings.Index(text, op); i > 0 {
		return i
	}
	return len(text)
}

// atomParam trims an atom's param name, rejecting inner whitespace.
func atomParam(raw, text string) (string, error) {
	p := strings.TrimSpace(raw)
	if strings.ContainsFunc(p, unicode.IsSpace) {
		return "", fmt.Errorf("preference: param %q contains whitespace in %q", p, text)
	}
	return p, nil
}

// parseDescriptor reads a descriptor's ';'-separated atoms into a
// descriptor, whose atoms and values live in lp's buffers. A parser
// whose buffers are too small for an eq-descriptor makes two
// allocations: the atoms, and one values array they share, sized for
// one value per atom; in- and between-atoms grow it.
func (lp *LineParser) parseDescriptor(text string) (ctxmodel.Descriptor, error) {
	atoms := strings.Count(text, ";") + 1
	pds, vals := lp.pds[:0], lp.vals[:0]
	if cap(pds) < atoms {
		pds = make([]ctxmodel.ParamDescriptor, 0, atoms)
	}
	if cap(vals) < atoms {
		vals = make([]string, 0, atoms)
	}
	for rest, more := text, true; more; {
		var atom string
		atom, rest, more = strings.Cut(rest, ";")
		pd, grown, err := parseAtom(atom, vals)
		if err != nil {
			return ctxmodel.Descriptor{}, err
		}
		pds, vals = append(pds, pd), grown
	}
	lp.pds, lp.vals = pds[:0], vals[:0]
	return ctxmodel.DescriptorFrom(pds)
}

// LineParser is ParseLine with buffers of its own that it reuses from
// one call to the next, so a caller that parses many lines and keeps
// none of the results, as journal replay does, makes no garbage per
// line. The zero value is ready to use; a LineParser is not safe for
// concurrent use.
type LineParser struct {
	pds  []ctxmodel.ParamDescriptor
	vals []string
}

// ParseLine reads one preference in the line encoding. The strings of
// the result are substrings of line. A descriptor of eq-atoms costs two
// allocations, and a line without a descriptor none.
func ParseLine(line string) (Preference, error) {
	var lp LineParser
	return lp.Parse(line)
}

// Parse is ParseLine, except that the descriptor of the result lives in
// the parser's buffers: it is valid only until the next call.
func (lp *LineParser) Parse(line string) (Preference, error) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "[") {
		return Preference{}, fmt.Errorf("preference: line must start with '[': %q", line)
	}
	end := strings.Index(line, "]")
	if end < 0 {
		return Preference{}, fmt.Errorf("preference: missing ']': %q", line)
	}
	descText := strings.TrimSpace(line[1:end])
	rest := strings.TrimSpace(line[end+1:])
	if !strings.HasPrefix(rest, "=>") {
		return Preference{}, fmt.Errorf("preference: missing '=>': %q", line)
	}
	rest = strings.TrimSpace(rest[2:])

	var d ctxmodel.Descriptor
	if descText != "" {
		var err error
		if d, err = lp.parseDescriptor(descText); err != nil {
			return Preference{}, err
		}
	}

	colon := strings.LastIndex(rest, ":")
	if colon < 0 {
		return Preference{}, fmt.Errorf("preference: missing ': score': %q", line)
	}
	score, err := strconv.ParseFloat(strings.TrimSpace(rest[colon+1:]), 64)
	if err != nil {
		return Preference{}, fmt.Errorf("preference: bad score in %q: %w", line, err)
	}
	clauseText := strings.TrimSpace(rest[:colon])
	clause, err := ParseClause(clauseText)
	if err != nil {
		return Preference{}, err
	}
	return New(d, clause, score)
}

// ParseClause reads "attr op value" with type inference on the value
// (see InferValue). The operator is the *earliest* occurrence of a
// comparison symbol — not the first operator that matches anywhere —
// so operator characters inside the (possibly quoted) value are never
// mistaken for the clause's operator; at that position the two-symbol
// operator wins over its one-symbol prefix (<= over <, == over =).
func ParseClause(text string) (Clause, error) {
	at := strings.IndexAny(text, "<>=!")
	if at <= 0 {
		return Clause{}, fmt.Errorf("preference: no comparison operator in clause %q", text)
	}
	op := text[at : at+1]
	for _, two := range []string{"<=", ">=", "!=", "<>", "=="} {
		if strings.HasPrefix(text[at:], two) {
			op = two
			break
		}
	}
	attr := strings.TrimSpace(text[:at])
	valText := strings.TrimSpace(text[at+len(op):])
	if attr == "" || valText == "" {
		return Clause{}, fmt.Errorf("preference: malformed clause %q", text)
	}
	cmp, err := relation.ParseCmpOp(op)
	if err != nil {
		return Clause{}, fmt.Errorf("preference: %w in clause %q", err, text)
	}
	val, err := InferValue(valText)
	if err != nil {
		return Clause{}, err
	}
	return Clause{Attr: attr, Op: cmp, Val: val}, nil
}

// FormatProfile renders every preference of the profile, one per line.
func FormatProfile(pr *Profile) string {
	var b strings.Builder
	for _, p := range pr.Preferences() {
		b.WriteString(Format(p))
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseProfile reads a profile from its line encoding, skipping blank
// lines and lines starting with '#'. Each preference is checked as it
// is added (Profile.Add): its descriptor against the environment, and
// Def. 6 against the preferences of the lines before it.
func ParseProfile(e *ctxmodel.Environment, text string) (*Profile, error) {
	pr, err := NewProfile(e)
	if err != nil {
		return nil, err
	}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if err := pr.Add(p); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	// The pair index only serves the adds above; a later Add rebuilds it.
	pr.seen = nil
	return pr, nil
}

// ParseLines reads the preferences of a profile's line encoding as
// ParseProfile does, with the same "line N: " error prefix, but checks
// syntax alone: neither the descriptors against an environment nor the
// preferences against each other. A caller that checks the whole batch
// itself, as the profile tree's Check does, parses with it.
//
// The result is sized once, from two bounds on the number of
// preferences the text can hold: each preference line starts with '[',
// and takes at least len(shortestLine) bytes with its newline. Blank
// lines and comments without '[' size nothing, and no text sizes more
// than a text of valid preferences of its length would need.
func ParseLines(text string) ([]Preference, error) {
	const shortestLine = "[]=>a=1:1\n"
	ps := make([]Preference, 0, min(strings.Count(text, "["), (len(text)+1)/len(shortestLine)))
	for ln, rest, more := 1, text, true; more; ln++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		p, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}
