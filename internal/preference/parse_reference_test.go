package preference

// The line parser as it stood before it was rewritten to allocate less:
// strings.Split over atoms and values, closures, and NewDescriptor's
// map and copy. It is kept verbatim as the reference the rewrite must
// match, Preference for Preference and error text for error text
// (FuzzParseLineMatchesReference). Only New is shared: the score rule
// is part of the grammar's contract, not of the parser's technique.

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/relation"
)

func refParseParamDescriptor(text string) (ctxmodel.ParamDescriptor, error) {
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

// refNewDescriptor is the map-and-copy NewDescriptor the old parser
// called.
func refNewDescriptor(pds ...ctxmodel.ParamDescriptor) (ctxmodel.Descriptor, error) {
	seen := make(map[string]bool, len(pds))
	for _, pd := range pds {
		if seen[pd.Param] {
			return ctxmodel.Descriptor{}, fmt.Errorf("ctxmodel: composite descriptor repeats parameter %q", pd.Param)
		}
		seen[pd.Param] = true
	}
	return ctxmodel.MustDescriptor(pds...), nil
}

func refParseLine(line string) (Preference, error) {
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
			pd, err := refParseParamDescriptor(atom)
			if err != nil {
				return Preference{}, err
			}
			pds = append(pds, pd)
		}
	}
	d, err := refNewDescriptor(pds...)
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
	clause, err := refParseClause(clauseText)
	if err != nil {
		return Preference{}, err
	}
	return New(d, clause, score)
}

func refParseClause(text string) (Clause, error) {
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
	val, err := refInferValue(valText)
	if err != nil {
		return Clause{}, err
	}
	return Clause{Attr: attr, Op: cmp, Val: val}, nil
}

func refInferValue(text string) (relation.Value, error) {
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

// samePreference compares two parse results field by field, the
// descriptor's unexported atoms included (a nil atom list differs from
// an empty one). A float clause value is compared by its bits, so a NaN
// value equals itself and -0 differs from 0.
func samePreference(a, b Preference) bool {
	if !reflect.DeepEqual(a.Descriptor, b.Descriptor) {
		return false
	}
	av, bv := a.Clause.Val, b.Clause.Val
	if a.Clause.Attr != b.Clause.Attr || a.Clause.Op != b.Clause.Op || av.Kind() != bv.Kind() ||
		av.Str() != bv.Str() || av.Int() != bv.Int() || av.Bool() != bv.Bool() ||
		math.Float64bits(av.Float()) != math.Float64bits(bv.Float()) {
		return false
	}
	return math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// FuzzParseLineMatchesReference checks that ParseLine and the reference
// parser agree on every input: the same Preference, or the same error
// text. The seeds walk each branch of the grammar and its edges.
func FuzzParseLineMatchesReference(f *testing.F) {
	seeds := []string{
		`[location = Plaka; temperature in {warm, hot}] => name = "Acropolis" : 0.8`,
		`[accompanying_people = friends; time = t01; location = ath_r01] => type = "museum" : 0.5`,
		`[] => type = museum : 0.5`,
		`[ ] => type = museum : 1`,
		`[a;] => x = y : 0.5`,
		`[;] => x = y : 0.5`,
		`[a = 1; a = 2] => x = y : 0.5`,
		`[a = 1; b = 2; a in {3}] => x = y : 0.5`,
		`[t between mild, hot] => admission_cost <= 10.5 : 0.75`,
		`[t between a, b, c] => x = y : 0.5`,
		`[t between a] => x = y : 0.5`,
		`[t between , b] => x = y : 0.5`,
		`[t in {a, , b}] => x = y : 0.5`,
		`[t in {}] => x = y : 0.5`,
		`[t in {a, a, b}] => x = y : 0.5`,
		`[t in a, b] => x = y : 0.5`,
		`[p = a in b] => x = y : 0.5`,
		`[p in {a = b}] => x = y : 0.5`,
		`[0 in=0] => x = y : 0.5`,
		`[p q = v] => x = y : 0.5`,
		`[= v] => x = y : 0.5`,
		`[p =] => x = y : 0.5`,
		`[p between a = b] => x = y : 0.5`,
		`[a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8; i = 9; a = 10] => x = y : 0.5`,
		`[a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8; i = 9; j = 10] => x = y : 0.5`,
		`[] => score = NaN : 0.5`,
		`[] => x = y : NaN`,
		`[] => x = y : nan`,
		`[] => x = y : -NaN`,
		`[] => x = y : Inf`,
		`[] => x = y : -Inf`,
		`[] => x = y : -0`,
		`[] => x = y : 1e-400`,
		`[] => x = y : 1.0000001`,
		`[] => x = Inf : 0.5`,
		`[] => x = -inf : 0.5`,
		`[] => x = +nan : 0.5`,
		`[] => x = -0.0 : 0.5`,
		`[] => x = 0x1p-2 : 0.5`,
		`[] => x = .5 : 0.5`,
		`[] => x = -.5e3 : 0.5`,
		`[] => x = 1_000 : 0.5`,
		`[] => x = +7 : 0.5`,
		`[] => x = 99999999999999999999 : 0.5`,
		`[] => x = infinity : 0.5`,
		`[] => x = - : 0.5`,
		`[] => x = true : 0.5`,
		`[] => x != "a:b" : 0.5`,
		`[] => x = "unterminated : 0.5`,
		`[] => x == y : 0.5`,
		`[] => x =< y : 0.5`,
		`[] => <= y : 0.5`,
		`[] => x : 0.5`,
		`[] => x = y`,
		"\u00a0[\u2003p\u00a0=\u3000v\u2028]\u0085=>\u00a0x\u2009=\u00a0y\u00a0:\u00a00.5\u00a0",
		"[p\u00a0= v] => x = y : 0.5",
		"[p = v\u00a0w] => x = y : 0.5",
		"[t in {a,\u00a0b}] => x = y : 0.5",
		"[p\vq = v] => x = y : 0.5",
		"[p\u00a0q = v] => x = y : 0.5",
		"[\u00e9\u2003q in {a}] => x = y : 0.5",
		"[p\u0085 between a, b] => x = y : 0.5",
		`[a = b] => x != -3 : 0`,
		`garbage`,
		`[unclosed => a = b : 0.5`,
		`[a] b => c = d : 0.5`,
		`[] => : 0.5`,
		`[] => a = b : nope`,
		"[\x00] => a = b : 0.5",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, err := ParseLine(line)
		want, refErr := refParseLine(line)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("ParseLine(%q) error = %v, reference error = %v", line, err, refErr)
		case err != nil:
			if err.Error() != refErr.Error() {
				t.Fatalf("ParseLine(%q) error text\n got %q\nwant %q", line, err, refErr)
			}
		case !samePreference(got, want):
			t.Fatalf("ParseLine(%q) = %#v, reference = %#v", line, got, want)
		}
		// ParseParamDescriptor is the same atom grammar on its own.
		pd, err := ParseParamDescriptor(line)
		refPD, refErr := refParseParamDescriptor(line)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) ||
			!reflect.DeepEqual(pd, refPD) {
			t.Fatalf("ParseParamDescriptor(%q) = %#v, %v; reference %#v, %v", line, pd, err, refPD, refErr)
		}
	})
}
