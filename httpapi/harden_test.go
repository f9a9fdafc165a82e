package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"contextpref"
	"contextpref/internal/dataset"
	"contextpref/internal/journal"
)

func newFixture(t *testing.T) (*contextpref.Environment, *contextpref.Relation) {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	return env, rel
}

func TestHealthEndpoints(t *testing.T) {
	env, rel := newFixture(t)
	srv := defaultUserServer(t, env, rel, nil, "")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Errorf("readyz = %d %q", resp.StatusCode, body)
	}

	srv.SetDraining(true)
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Errorf("readyz while draining = %d %q", resp.StatusCode, body)
	}
	// Liveness is unaffected by draining.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d", resp.StatusCode)
	}
	srv.SetDraining(false)
	if resp, _ = get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after drain cleared = %d", resp.StatusCode)
	}
}

// TestErrorCodes: error responses carry machine-readable codes, and
// conflicts are detected via the typed error, not string matching.
func TestErrorCodes(t *testing.T) {
	ts := newServer(t)

	decode := func(body string) map[string]string {
		var m map[string]string
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("error body %q: %v", body, err)
		}
		return m
	}

	resp, body := post(t, ts.URL+"/preferences", "text/plain", "not a preference")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage add = %d", resp.StatusCode)
	}
	if m := decode(body); m["code"] != "bad_request" || m["error"] == "" {
		t.Errorf("garbage add body = %v", m)
	}

	pref := "[accompanying_people = friends] => type = brewery : 0.9"
	if resp, _ := post(t, ts.URL+"/preferences", "text/plain", pref); resp.StatusCode != http.StatusOK {
		t.Fatalf("add = %d", resp.StatusCode)
	}
	conflicting := "[accompanying_people = friends] => type = brewery : 0.2"
	resp, body = post(t, ts.URL+"/preferences", "text/plain", conflicting)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting add = %d %q", resp.StatusCode, body)
	}
	if m := decode(body); m["code"] != "conflict" {
		t.Errorf("conflict body = %v", m)
	}
}

// TestRequestID: responses echo an incoming X-Request-ID and mint one
// otherwise.
func TestRequestID(t *testing.T) {
	ts := newServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/stats", nil)
	req.Header.Set("X-Request-ID", "abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "abc-123" {
		t.Errorf("echoed request id = %q", got)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		t.Error("no request id minted")
	}
}

// TestPanicRecovery: a panicking handler yields a 500 JSON error, not a
// dropped connection, and the server keeps serving.
func TestPanicRecovery(t *testing.T) {
	env, rel := newFixture(t)
	srv := defaultUserServer(t, env, rel, nil, "")
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic = %d %q", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"internal"`) {
		t.Errorf("panic body = %q", body)
	}
	if resp, _ := get(t, ts.URL+"/stats"); resp.StatusCode != http.StatusOK {
		t.Errorf("server dead after panic: %d", resp.StatusCode)
	}
}

// TestMaxInflight: with a saturated semaphore, requests shed with 503 +
// "overloaded" while health probes still answer.
func TestMaxInflight(t *testing.T) {
	env, rel := newFixture(t)
	srv := defaultUserServer(t, env, rel, nil, "", WithMaxInflight(1))
	release := make(chan struct{})
	entered := make(chan struct{})
	srv.mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the slot is held

	resp, body := get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overloaded = %d %q", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"overloaded"`) {
		t.Errorf("overloaded body = %q", body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q", got)
	}
	// Probes bypass the limiter.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while saturated = %d", resp.StatusCode)
	}
	close(release)
	<-done
	if resp, _ := get(t, ts.URL+"/stats"); resp.StatusCode != http.StatusOK {
		t.Errorf("after release = %d", resp.StatusCode)
	}
}

// TestMultiUserJournalStress hammers a journaled multi-user server with
// parallel adds, removes, queries, exports, and user drops; run under
// -race this is the concurrency soak for the persistence path. It
// finishes by crash-recovering and checking the surviving users replay.
func TestMultiUserJournalStress(t *testing.T) {
	env, rel := newFixture(t)
	store := t.TempDir()
	j, _, err := journal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	dir.SetPersister(contextpref.NewJournalPersister(j))
	srv, err := NewMultiUser(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := ts.Client()
	do := func(req *http.Request) {
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	const workers = 8
	iters := 25
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("user%d", w%4) // contended users
			for i := 0; i < iters; i++ {
				pref := fmt.Sprintf("[time = t%02d] => type = museum : 0.%d", i%12+1, i%9+1)
				req, _ := http.NewRequest("POST", ts.URL+"/preferences?user="+user, strings.NewReader(pref))
				do(req)
				req, _ = http.NewRequest("GET", ts.URL+"/preferences?user="+user, nil)
				do(req)
				req, _ = http.NewRequest("DELETE", ts.URL+"/preferences?user="+user, strings.NewReader(pref))
				do(req)
				body := fmt.Sprintf(`{"query":"top 3 where type = museum","current":["friends","t%02d","ath_r01"]}`, i%12+1)
				req, _ = http.NewRequest("POST", ts.URL+"/query?user="+user, strings.NewReader(body))
				do(req)
				if i%10 == 9 {
					if _, err := dir.RemoveUser(fmt.Sprintf("user%d", (w+2)%4)); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Crash without snapshot, then replay the full journal.
	wantUsers := dir.Users()
	wantExports := map[string]string{}
	for _, u := range wantUsers {
		sys, _ := dir.Lookup(u)
		text, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		wantExports[u] = text
	}
	j.Close()

	_, recs, err := journal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	dir2, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir2.Replay(recs); err != nil {
		t.Fatal(err)
	}
	gotUsers := dir2.Users()
	if len(gotUsers) != len(wantUsers) {
		t.Fatalf("recovered users = %v, want %v", gotUsers, wantUsers)
	}
	for _, u := range wantUsers {
		sys, ok := dir2.Lookup(u)
		if !ok {
			t.Fatalf("user %q missing after replay", u)
		}
		text, err := sys.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		if text != wantExports[u] {
			t.Errorf("user %q export mismatch after replay", u)
		}
	}
}

// TestKillAndRecoverMidStream truncates the journal at an arbitrary
// byte offset — a crash mid-write — and verifies the store reopens to a
// valid prefix of the history, replayable without error.
func TestKillAndRecoverMidStream(t *testing.T) {
	env, rel := newFixture(t)
	store := t.TempDir()
	j, _, err := journal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := contextpref.NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(contextpref.NewJournalPersister(j), "")
	for i := 1; i <= 8; i++ {
		pref := fmt.Sprintf("[time = t%02d] => type = museum : 0.%d", i, i)
		if err := sys.LoadProfile(pref); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	jpath := store + "/journal.cpj"
	full, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-way through the final record.
	cut := len(full) - len(full)/5
	if err := os.WriteFile(jpath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := journal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := contextpref.NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.Replay(recs); err != nil {
		t.Fatal(err)
	}
	n := sys2.NumPreferences()
	if n == 0 || n >= 8 {
		t.Errorf("recovered %d preferences from truncated journal, want a proper prefix", n)
	}
	// The reopened journal accepts new writes after the truncation.
	sys2.SetPersister(contextpref.NewJournalPersister(j2), "")
	if err := sys2.LoadProfile("[time = t12] => type = gallery : 0.5"); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, recs3, err := journal.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	sys3, err := contextpref.NewSystem(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys3.Replay(recs3); err != nil {
		t.Fatal(err)
	}
	if got := sys3.NumPreferences(); got != n+1 {
		t.Errorf("after post-truncation write: %d preferences, want %d", got, n+1)
	}
}
