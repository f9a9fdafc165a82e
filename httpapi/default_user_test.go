package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"contextpref"
)

// defaultUserProfile is the profile user "default" holds before the
// script runs.
const defaultUserProfile = `[accompanying_people = friends] => type = brewery : 0.9
[time = t03] => type = museum : 0.6
[location = ath_r01] => type = park : 0.7
`

// defaultUserScript covers every route a request without ?user can
// take, with one answer of each kind: success, conflict, malformed
// input, an oversized body, a bad state and an unknown path. /users and
// ?user are left out on purpose (see TestDefaultUserGolden).
var defaultUserScript = []struct{ method, target, body string }{
	{"GET", "/env", ""},
	{"GET", "/stats", ""},
	{"POST", "/preferences", "[accompanying_people = family] => type = museum : 0.7\n"},
	{"POST", "/preferences", "[accompanying_people = family] => type = museum : 0.2\n"},
	{"POST", "/preferences", "[accompanying_people = family] => type museum\n"},
	{"POST", "/preferences", strings.Repeat("# padding\n", 60)},
	{"GET", "/preferences", ""},
	{"POST", "/query", `{"query":"top 5","current":["friends","t03","ath_r01"]}`},
	{"POST", "/query", `{"query":"top 3 context accompanying_people = friends"}`},
	{"POST", "/query", `{"query":"top 5","current":["friends","t03","atlantis"]}`},
	{"POST", "/query", `{"query":`},
	{"GET", "/resolve?state=family,t03,ath_r01", ""},
	{"GET", "/resolve", ""},
	{"DELETE", "/preferences", "[accompanying_people = family] => type = museum : 0.7\n"},
	{"DELETE", "/preferences", "not a preference\n"},
	{"GET", "/healthz", ""},
	{"GET", "/readyz", ""},
	{"GET", "/no-such-path", ""},
}

// runDefaultUserScript sends the script to srv in order and renders
// each answer's status, Content-Type, Retry-After, X-Request-ID and
// body; the body length makes the transcript unambiguous.
func runDefaultUserScript(srv http.Handler) string {
	var b strings.Builder
	for _, step := range defaultUserScript {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(step.method, step.target, strings.NewReader(step.body)))
		h := rec.Header()
		body := rec.Body.String()
		fmt.Fprintf(&b, "> %s %s\n< %d content-type=%q retry-after=%q x-request-id=%q body-bytes=%d\n%s\n",
			step.method, step.target, rec.Code, h.Get("Content-Type"), h.Get("Retry-After"),
			h.Get("X-Request-ID"), len(body), body)
	}
	return b.String()
}

// TestDefaultUserGolden pins what a request without ?user gets: user
// "default" of a one-shard directory must answer the script exactly as
// the single-System server (httpapi.New over one System holding the
// same profile) answered it at commit 5c86679, where
// testdata/default_user.golden was recorded. That server had no /users
// route and ignored ?user, which is the one intended difference, so the
// script uses neither.
func TestDefaultUserGolden(t *testing.T) {
	env, rel := newFixture(t)
	srv := defaultUserServer(t, env, rel, []contextpref.Option{contextpref.WithQueryCache(32)},
		defaultUserProfile, WithMaxBodyBytes(512))
	got := runDefaultUserScript(srv)
	want, err := os.ReadFile("testdata/default_user.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript differs from the golden at line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
