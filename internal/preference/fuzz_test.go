package preference

import (
	"strings"
	"testing"

	"contextpref/internal/ctxmodel"
)

// FuzzParseLine checks that the preference line parser never panics and
// that every successfully parsed preference re-formats into a line that
// parses to an equivalent preference.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		`[location = Plaka; temperature in {warm, hot}] => name = "Acropolis" : 0.8`,
		`[accompanying_people = friends] => type = brewery : 0.9`,
		`[] => type = museum : 0.5`,
		`[t between mild, hot] => admission_cost <= 10.5 : 0.75`,
		`[p = v] => open_air = true : 1`,
		`[a = b] => x != -3 : 0`,
		`garbage`,
		`[unclosed => a = b : 0.5`,
		`[] => : 0.5`,
		`[] => a = b : nope`,
		"[\x00] => a = b : 0.5",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	env := ctxmodel.MustReferenceEnvironment()
	f.Fuzz(func(t *testing.T, line string) {
		p, err := ParseLine(line)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// ParseLines sizes its result on two facts about a line that
		// parses: it starts with '[' and is no shorter than "[]=>a=1:1".
		if trimmed := strings.TrimSpace(line); trimmed[0] != '[' || len(trimmed) < len("[]=>a=1:1") {
			t.Fatalf("ParseLine(%q) parsed a line ParseLines does not size for", line)
		}
		// Round-trip: Format must produce a parseable line with the
		// same clause and score.
		again, err := ParseLine(Format(p))
		if err != nil {
			t.Fatalf("Format(%q) = %q does not re-parse: %v", line, Format(p), err)
		}
		if !again.Clause.Equal(p.Clause) || again.Score != p.Score {
			t.Fatalf("round-trip mismatch: %v vs %v", p, again)
		}
		// Descriptor expansion either fails consistently (unknown
		// values for this environment) or matches.
		s1, err1 := p.Descriptor.Context(env)
		s2, err2 := again.Descriptor.Context(env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("expansion disagreement for %q", line)
		}
		if err1 == nil && len(s1) != len(s2) {
			t.Fatalf("expansion size mismatch for %q", line)
		}
	})
}
