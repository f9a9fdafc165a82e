package preference_test

import (
	"strings"
	"testing"

	"contextpref/internal/dataset"
	"contextpref/internal/preference"
	"contextpref/internal/profiletree"
)

// FuzzPreferenceBinaryRoundTrip checks the binary codec against the
// line codec over the real environment: every line that parses and
// whose descriptor the environment accepts encodes, decodes to a
// preference that formats exactly as the parsed one, and builds a
// profile tree that encodes exactly as the parsed one's. A line whose
// descriptor the environment rejects fails to encode with the error
// Descriptor.Context gives.
func FuzzPreferenceBinaryRoundTrip(f *testing.F) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		f.Fatal(err)
	}
	prefs, err := dataset.ProfileSpec{Env: env, NumPrefs: 24, Seed: 7, Dist: dataset.Zipf, ZipfA: 1, UpperLevelProb: 0.3}.Generate()
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range prefs {
		f.Add(preference.Format(p))
	}
	times := env.Param(1).Hierarchy().DetailedValues()
	for _, s := range []string{
		"[] => type = museum : 0.5",
		"[time in {" + times[0] + ", " + times[2] + ", " + times[0] + "}] => type = \"tab\\there\" : 0.25",
		"[time between " + times[1] + ", " + times[4] + "; accompanying_people = all] => admission <= 10.5 : 1",
		"[time between " + times[4] + ", " + times[1] + "] => admission <= 10.5 : 1",
		"[accompanying_people = friends] => open_air = true : 0",
		"[accompanying_people = friends] => rank > -3 : 0.125",
		"[accompanying_people = strangers] => type = zoo : 0.5",
		"[weather = sunny] => type = zoo : 0.5",
		"[time in {all, " + times[3] + "}] => type != cafe : 1e-300",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p, err := preference.ParseLine(line)
		if err != nil {
			return
		}
		prefix := []byte("prefix")
		enc, encErr := preference.AppendBinary(prefix, env, p)
		if _, ctxErr := p.Descriptor.Context(env); ctxErr != nil {
			if encErr == nil || encErr.Error() != ctxErr.Error() {
				t.Fatalf("%q: encode error %v, Context error %v", line, encErr, ctxErr)
			}
			if string(enc) != "prefix" {
				t.Fatalf("%q: a failed encode left %q", line, enc)
			}
			return
		}
		if encErr != nil {
			t.Fatalf("%q: encode: %v", line, encErr)
		}
		if !strings.HasPrefix(string(enc), "prefix") {
			t.Fatalf("%q: encode lost the prefix: %q", line, enc)
		}
		got, rest, err := preference.NewDecoder(env).Decode(string(enc[len(prefix):]) + "tail")
		if err != nil {
			t.Fatalf("%q: decode: %v", line, err)
		}
		if rest != "tail" {
			t.Fatalf("%q: decode left %q, want the tail", line, rest)
		}
		if g, w := preference.Format(got), preference.Format(p); g != w {
			t.Fatalf("decoded preference formats as %q, parsed one as %q", g, w)
		}
		parsed, err := profiletree.New(env, nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := profiletree.New(env, nil)
		if err != nil {
			t.Fatal(err)
		}
		err1, err2 := parsed.InsertAll(p), decoded.InsertAll(got)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: insert errors differ: parsed %v, decoded %v", line, err1, err2)
		}
		e1, err1 := parsed.Encode()
		e2, err2 := decoded.Encode()
		if err1 != nil || err2 != nil || e1 != e2 {
			t.Fatalf("%q: trees encode differently:\n%s(%v)\n%s(%v)", line, e1, err1, e2, err2)
		}
	})
}
