package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"contextpref"
	"contextpref/internal/dataset"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := defaultUserServer(t, env, rel, []contextpref.Option{contextpref.WithQueryCache(32)}, "")
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// defaultUserServer serves a one-shard directory whose user "default"
// holds profile, so requests without ?user reach it; sysOpts configure
// every per-user System.
func defaultUserServer(t testing.TB, env *contextpref.Environment, rel *contextpref.Relation,
	sysOpts []contextpref.Option, profile string, opts ...ServerOption) *Server {
	t.Helper()
	dir, err := contextpref.NewDirectory(env, rel, contextpref.WithSystemOptions(sysOpts...))
	if err != nil {
		t.Fatal(err)
	}
	user, err := dir.User("default")
	if err != nil {
		t.Fatal(err)
	}
	if err := user.LoadProfile(profile); err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiUser(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func post(t *testing.T, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, b.String()
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, b.String()
}

func TestNewValidation(t *testing.T) {
	if _, err := NewMultiUser(nil); err == nil {
		t.Error("nil directory should fail")
	}
}

func TestEnvEndpoint(t *testing.T) {
	ts := newServer(t)
	resp, body := get(t, ts.URL+"/env")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var params []EnvParameter
	if err := json.Unmarshal([]byte(body), &params); err != nil {
		t.Fatal(err)
	}
	if len(params) != 3 {
		t.Fatalf("params = %d", len(params))
	}
	if params[2].Name != "location" || params[2].DetailedDomain != 100 {
		t.Errorf("location param = %+v", params[2])
	}
	if len(params[2].SampleValues) != 10 {
		t.Errorf("samples = %d", len(params[2].SampleValues))
	}
}

func TestPreferenceLifecycle(t *testing.T) {
	ts := newServer(t)
	// Add two preferences.
	profile := `[accompanying_people = friends] => type = brewery : 0.9
[time = morning] => type = museum : 0.8`
	resp, body := post(t, ts.URL+"/preferences", "text/plain", profile)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"preferences":2`) {
		t.Errorf("add response = %s", body)
	}
	// Export round-trips.
	resp, body = get(t, ts.URL+"/preferences")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "brewery") {
		t.Errorf("export = %d %q", resp.StatusCode, body)
	}
	// Stats reflect the profile.
	resp, body = get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"Preferences":2`) {
		t.Errorf("stats = %d %s", resp.StatusCode, body)
	}
	// A conflicting preference yields 409.
	resp, body = post(t, ts.URL+"/preferences", "text/plain",
		"[accompanying_people = friends] => type = brewery : 0.1")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflict status = %d %s", resp.StatusCode, body)
	}
	// Malformed preference yields 400.
	resp, _ = post(t, ts.URL+"/preferences", "text/plain", "garbage")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad add status = %d", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := newServer(t)
	post(t, ts.URL+"/preferences", "text/plain",
		"[accompanying_people = friends] => type = brewery : 0.9")

	// Query under a current context.
	req := `{"query": "top 5", "current": ["friends", "t03", "ath_r01"]}`
	resp, body := post(t, ts.URL+"/query", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Contextual || len(qr.Tuples) == 0 {
		t.Fatalf("response = %+v", qr)
	}
	if qr.Tuples[0].Score != 0.9 {
		t.Errorf("top score = %v", qr.Tuples[0].Score)
	}
	if len(qr.Matched) != 1 || !strings.Contains(qr.Matched[0], "friends") {
		t.Errorf("matched = %v", qr.Matched)
	}
	// Query with an explicit context clause, no current state.
	req = `{"query": "top 3 context accompanying_people = friends"}`
	resp, body = post(t, ts.URL+"/query", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit-context query: %d %s", resp.StatusCode, body)
	}
	// Errors.
	for _, bad := range []string{
		`not json`,
		`{"query": "garbage query"}`,
		`{"query": "top 5"}`,                      // no context at all
		`{"query": "top 5", "current": ["nope"]}`, // bad state
		`{"query": "where bogus = 1", "current": ["friends", "t03", "ath_r01"]}`, // bad column
	} {
		resp, _ := post(t, ts.URL+"/query", "application/json", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestResolveEndpoint(t *testing.T) {
	ts := newServer(t)
	post(t, ts.URL+"/preferences", "text/plain",
		"[accompanying_people = friends] => type = brewery : 0.9\n[] => type = park : 0.4")

	resp, body := get(t, ts.URL+"/resolve?state=friends,t03,ath_r01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve: %d %s", resp.StatusCode, body)
	}
	var cands []ResolveCandidate
	if err := json.Unmarshal([]byte(body), &cands); err != nil {
		t.Fatal(err)
	}
	// (friends, all, all) and (all, all, all) both cover.
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	if cands[0].Distance > cands[1].Distance {
		t.Error("candidates not sorted by distance")
	}
	if len(cands[0].Entries) == 0 {
		t.Error("candidate without entries")
	}
	// Errors.
	if resp, _ := get(t, ts.URL+"/resolve"); resp.StatusCode != http.StatusBadRequest {
		t.Error("missing state should 400")
	}
	if resp, _ := get(t, ts.URL+"/resolve?state=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Error("bad state should 400")
	}
}

func TestMethodRouting(t *testing.T) {
	ts := newServer(t)
	// Wrong method on a route.
	resp, err := http.Post(ts.URL+"/env", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /env status = %d", resp.StatusCode)
	}
	// Unknown route.
	r2, _ := get(t, ts.URL+"/nope")
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope status = %d", r2.StatusCode)
	}
}

func TestMultiUserServer(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiUser(nil); err == nil {
		t.Error("nil directory should fail")
	}
	defaults, err := dataset.DefaultProfiles(env)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := contextpref.NewDirectory(env, rel,
		contextpref.WithDefaultProfile(func(user string) ([]contextpref.Preference, error) {
			// Seed every user with one of the usability study's
			// demographic defaults.
			return defaults["under30_male_mainstream"], nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiUser(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Alice and Bob have isolated profiles; both start from the seed.
	resp, body := post(t, ts.URL+"/preferences?user=alice", "text/plain",
		"[location = ath_r01] => type = gallery : 0.85")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice add: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/stats?user=bob")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob stats: %d %s", resp.StatusCode, body)
	}
	var bobStats contextpref.Stats
	if err := json.Unmarshal([]byte(body), &bobStats); err != nil {
		t.Fatal(err)
	}
	_, aliceBody := get(t, ts.URL+"/stats?user=alice")
	var aliceStats contextpref.Stats
	if err := json.Unmarshal([]byte(aliceBody), &aliceStats); err != nil {
		t.Fatal(err)
	}
	if aliceStats.Preferences != bobStats.Preferences+1 {
		t.Errorf("alice %d prefs, bob %d: expected alice = bob+1",
			aliceStats.Preferences, bobStats.Preferences)
	}
	// Queries go to the right profile.
	req := `{"query": "top 3", "current": ["friends", "t03", "ath_r01"]}`
	resp, body = post(t, ts.URL+"/query?user=alice", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice query: %d %s", resp.StatusCode, body)
	}
	// The users listing includes both plus the implicit default user if
	// touched; here only alice and bob exist.
	resp, body = get(t, ts.URL+"/users")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("users endpoint missing")
	}
	var users []string
	if err := json.Unmarshal([]byte(body), &users); err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 || users[0] != "alice" || users[1] != "bob" {
		t.Errorf("users = %v", users)
	}
	// Omitted user falls back to "default".
	resp, _ = get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Error("default user stats failed")
	}
	if _, body := get(t, ts.URL+"/users"); !strings.Contains(body, "default") {
		t.Errorf("default user not registered: %s", body)
	}
}

func TestRemoveEndpoint(t *testing.T) {
	ts := newServer(t)
	post(t, ts.URL+"/preferences", "text/plain",
		"[accompanying_people = friends] => type = brewery : 0.9\n[time = morning] => type = museum : 0.8")

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/preferences",
		strings.NewReader("[time = morning] => type = museum : 0.8"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, buf[:n])
	}
	if !strings.Contains(string(buf[:n]), `"removed":1`) ||
		!strings.Contains(string(buf[:n]), `"preferences":1`) {
		t.Errorf("delete response = %s", buf[:n])
	}
	// Removing a non-existent preference reports zero.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/preferences",
		strings.NewReader("[time = morning] => type = museum : 0.8"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), `"removed":0`) {
		t.Errorf("second delete = %s", buf[:n])
	}
	// Malformed body is a 400.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/preferences", strings.NewReader("garbage"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad delete status = %d", resp.StatusCode)
	}
}
