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
	for _, pd := range p.Descriptor.ParamDescriptors() {
		switch pd.Kind {
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
	text = strings.TrimSpace(text)
	parseParam := func(raw string) (string, error) {
		p := strings.TrimSpace(raw)
		if strings.ContainsFunc(p, unicode.IsSpace) {
			return "", fmt.Errorf("preference: param %q contains whitespace in %q", p, text)
		}
		return p, nil
	}
	first := func(op string) int {
		i := strings.Index(text, op)
		if i <= 0 {
			return len(text)
		}
		return i
	}
	eqAt, inAt, betweenAt := first("="), first(" in "), first(" between ")
	if eqAt < inAt && eqAt < betweenAt {
		param, err := parseParam(text[:eqAt])
		if err != nil {
			return ctxmodel.ParamDescriptor{}, err
		}
		val := strings.TrimSpace(text[eqAt+1:])
		if param == "" || val == "" {
			return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: malformed eq-descriptor %q", text)
		}
		return ctxmodel.Eq(param, val), nil
	}
	if i := strings.Index(text, " in "); i > 0 && inAt < betweenAt {
		param, err := parseParam(text[:i])
		if err != nil {
			return ctxmodel.ParamDescriptor{}, err
		}
		rest := strings.TrimSpace(text[i+4:])
		if !strings.HasPrefix(rest, "{") || !strings.HasSuffix(rest, "}") {
			return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: malformed in-descriptor %q", text)
		}
		var vals []string
		for _, v := range strings.Split(rest[1:len(rest)-1], ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: empty value in %q", text)
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: empty in-descriptor %q", text)
		}
		return ctxmodel.In(param, vals...), nil
	}
	if i := strings.Index(text, " between "); i > 0 {
		param, err := parseParam(text[:i])
		if err != nil {
			return ctxmodel.ParamDescriptor{}, err
		}
		parts := strings.Split(text[i+9:], ",")
		if len(parts) != 2 {
			return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: malformed between-descriptor %q", text)
		}
		lo, hi := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		if lo == "" || hi == "" {
			return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: empty endpoint in %q", text)
		}
		return ctxmodel.Between(param, lo, hi), nil
	}
	return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: cannot parse descriptor atom %q", text)
}

// ParseLine reads one preference in the line encoding.
func ParseLine(line string) (Preference, error) {
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

	var pds []ctxmodel.ParamDescriptor
	if descText != "" {
		for _, atom := range strings.Split(descText, ";") {
			pd, err := ParseParamDescriptor(atom)
			if err != nil {
				return Preference{}, err
			}
			pds = append(pds, pd)
		}
	}
	d, err := ctxmodel.NewDescriptor(pds...)
	if err != nil {
		return Preference{}, err
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
// lines and lines starting with '#'.
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
