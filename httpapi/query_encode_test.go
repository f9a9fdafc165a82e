package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contextpref"
	"contextpref/internal/dataset"
)

// referenceQueryBody is the /query body as json.Encoder renders the
// QueryResponse built the way the handler built it before responses
// were appended into one buffer. ok is false when the encoder refuses
// the value.
func referenceQueryBody(res *contextpref.Result) (body []byte, ok bool) {
	resp := QueryResponse{Contextual: res.Contextual}
	for _, rl := range res.Resolutions {
		if rl.Found {
			resp.Matched = append(resp.Matched,
				fmt.Sprintf("%s @ %.3f", rl.Match.State, rl.Match.Distance))
		}
	}
	for _, t := range res.Tuples {
		vals := make([]string, len(t.Tuple))
		for i, v := range t.Tuple {
			vals[i] = v.String()
		}
		resp.Tuples = append(resp.Tuples, QueryTuple{Score: t.Score, Values: vals})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return buf.Bytes(), false
	}
	return buf.Bytes(), true
}

// trickyStrings exercise every escaping rule of encoding/json: HTML
// characters, quotes and backslashes, control characters with and
// without short escapes, non-ASCII text, invalid UTF-8, and the JSONP
// line separators.
var trickyStrings = []string{
	"<b>Plaka & Psiri</b>",
	`say "hi" \ back/slash`,
	"tab\tnl\ncr\rbs\bff\f",
	"nul\x00bell\x07unit\x1fdel\x7f",
	"naïve café 東京 😀",
	"sep\u2028para\u2029",
	"bad\xffutf8\xc3",
	"",
}

// TestQueryEncoderMatchesJSONEncoder checks appendQueryResponse against
// json.Encoder over QueryResponse, byte for byte: escaped values,
// encoding/json's float rule, absent matches, nil and empty tuple
// lists, and a tuple added after the server pre-rendered the relation.
func TestQueryEncoderMatchesJSONEncoder(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	schema, err := contextpref.NewSchema("t",
		contextpref.Column{Name: "s", Kind: contextpref.KindString},
		contextpref.Column{Name: "i", Kind: contextpref.KindInt},
		contextpref.Column{Name: "f", Kind: contextpref.KindFloat},
		contextpref.Column{Name: "b", Kind: contextpref.KindBool})
	if err != nil {
		t.Fatal(err)
	}
	rel := contextpref.NewRelation(schema)
	for i, s := range trickyStrings {
		if _, err := rel.Insert(contextpref.String(s), contextpref.Int(int64(i)), contextpref.Float(float64(i)/3), contextpref.Bool(i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	srv := defaultUserServer(t, env, rel, nil, "")
	late, err := rel.Insert(contextpref.String("added <after> the build"), contextpref.Int(-1), contextpref.Float(1e300), contextpref.Bool(false))
	if err != nil {
		t.Fatal(err)
	}

	scores := []float64{0, 1, 1e-7, 1e21, 0.1 + 0.2, 5e-324, 1e-6, 9.99e20, 123456.789, 0.5}
	var tuples []contextpref.ScoredTuple
	for i := 0; i <= late; i++ {
		tuples = append(tuples, contextpref.ScoredTuple{Index: i, Tuple: rel.Tuple(i), Score: scores[i%len(scores)]})
	}
	found := func(state contextpref.State, d float64) contextpref.Resolution {
		return contextpref.Resolution{Found: true, Match: contextpref.Candidate{State: state, Distance: d}}
	}
	cases := map[string]*contextpref.Result{
		"ranked": {
			Contextual: true,
			Tuples:     tuples,
			Resolutions: []contextpref.Resolution{
				found(contextpref.State{"friends", "t01", "ath_r01"}, 0),
				{Query: contextpref.State{"alone", "all", "all"}},
				found(contextpref.State{"<&>", `"q"`, "\x01\u2028é"}, 2.0/3),
			},
		},
		"no matches":   {Tuples: tuples[:3]},
		"nil tuples":   {Contextual: true, Resolutions: []contextpref.Resolution{found(contextpref.State{"all", "all", "all"}, 1.5)}},
		"empty tuples": {Contextual: true, Tuples: []contextpref.ScoredTuple{}},
		"empty tuple":  {Tuples: []contextpref.ScoredTuple{{Index: late + 1, Score: 0.25}}},
		"zero value":   {},
	}
	for name, res := range cases {
		got, ok := srv.appendQueryResponse(nil, res)
		want, wantOK := referenceQueryBody(res)
		if !ok || !wantOK || !bytes.Equal(got, want) {
			t.Errorf("%s:\n got  %q (ok %v)\n want %q (ok %v)", name, got, ok, want, wantOK)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &contextpref.Result{Tuples: []contextpref.ScoredTuple{{Index: 0, Tuple: rel.Tuple(0), Score: f}}}
		_, ok := srv.appendQueryResponse(nil, res)
		_, wantOK := referenceQueryBody(res)
		if ok || wantOK {
			t.Errorf("score %v: encoded (ok %v), json.Encoder ok %v", f, ok, wantOK)
		}
	}
}

// TestQueryEndpointBytes checks the served /query body byte for byte
// against json.Encoder over the same query evaluated on the system.
func TestQueryEndpointBytes(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	profile := "[accompanying_people = friends] => type = brewery : 0.9\n" +
		"[time = t03] => type = museum : 0.6\n"
	sys, err := contextpref.NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProfile(profile); err != nil {
		t.Fatal(err)
	}
	srv := defaultUserServer(t, env, rel, nil, profile)
	for _, req := range []string{
		`{"query": "top 5", "current": ["friends", "t03", "ath_r01"]}`,
		`{"query": "", "current": ["alone", "t01", "ath_r02"]}`,
		`{"query": "top 3 context accompanying_people = friends"}`,
	} {
		var qr QueryRequest
		if err := json.Unmarshal([]byte(req), &qr); err != nil {
			t.Fatal(err)
		}
		q, err := contextpref.ParseQuery(qr.Query)
		if err != nil {
			t.Fatal(err)
		}
		var cur contextpref.State
		if len(qr.Current) > 0 {
			cur = contextpref.State(qr.Current)
		}
		res, err := sys.Query(q, cur)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := referenceQueryBody(res)

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(req)))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q", req, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got  %s\n want %s", req, got, want)
		}
	}
}
