package httpapi

// Follower-mode serving contract: mutations are rejected with a
// structured 503 "read_only", data reads serve while the replica is
// within its staleness bound and fail with 503 "stale" beyond it, and
// /readyz walks the Following / stale / Promoting states.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"contextpref"
	"contextpref/internal/dataset"
)

// followerFixture is a one-shard server in follower role with a
// controllable staleness source.
type followerFixture struct {
	ts     *httptest.Server
	health *contextpref.Health

	mu  sync.Mutex
	lag time.Duration
}

func (f *followerFixture) setLag(d time.Duration) {
	f.mu.Lock()
	f.lag = d
	f.mu.Unlock()
}

func (f *followerFixture) staleness(int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lag
}

func newFollowerServer(t *testing.T, maxStaleness time.Duration) *followerFixture {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	// Replicated state the follower already holds, loaded before the
	// role flips (the stream's own applies bypass the role gate).
	sys, err := dir.User("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProfile("[accompanying_people = friends] => type = bar : 0.8\n"); err != nil {
		t.Fatal(err)
	}
	health := contextpref.NewShardHealth(0)
	health.SetRole(contextpref.RoleFollower)
	dir.SetShardHealth(0, health)

	f := &followerFixture{health: health}
	srv, err := NewMultiUser(dir,
		WithShardHealth([]*contextpref.Health{health}),
		WithShardReplica(f.staleness, maxStaleness))
	if err != nil {
		t.Fatal(err)
	}
	f.ts = httptest.NewServer(srv)
	t.Cleanup(f.ts.Close)
	return f
}

func errCode(t *testing.T, body string) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("response %q is not a structured error: %v", body, err)
	}
	return e.Code
}

func TestFollowerRejectsMutationsReadOnly(t *testing.T) {
	f := newFollowerServer(t, time.Second)
	pref := "[accompanying_people = friends] => type = brewery : 0.9\n"

	resp, body := post(t, f.ts.URL+"/preferences?user=alice", "text/plain", pref)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /preferences on follower: %d %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "read_only" {
		t.Fatalf("POST /preferences code %q, want read_only", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("read_only rejection carries no Retry-After")
	}

	respDel, bodyDel := doBody(t, http.MethodDelete, f.ts.URL+"/preferences?user=alice", pref)
	if respDel.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE /preferences on follower: %d %s", respDel.StatusCode, bodyDel)
	}
	if code := errCode(t, bodyDel); code != "read_only" {
		t.Fatalf("DELETE /preferences code %q, want read_only", code)
	}
}

func TestFollowerServesReadsWithinBound(t *testing.T) {
	f := newFollowerServer(t, time.Second)
	f.setLag(10 * time.Millisecond)

	resp, body := get(t, f.ts.URL+"/preferences?user=alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /preferences on fresh follower: %d %s", resp.StatusCode, body)
	}
	if body == "" {
		t.Fatal("fresh follower served an empty profile")
	}
	resp, body = get(t, f.ts.URL+"/resolve?user=alice&state=friends,t03,ath_r01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /resolve on fresh follower: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, f.ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz on fresh follower: %d %s", resp.StatusCode, body)
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "following" {
		t.Fatalf("/readyz status %q, want following", st.Status)
	}
}

func TestFollowerRejectsStaleReads(t *testing.T) {
	f := newFollowerServer(t, 50*time.Millisecond)
	f.setLag(10 * time.Second)

	for _, path := range []string{
		"/preferences?user=alice",
		"/resolve?user=alice&state=friends,t03,ath_r01",
		"/stats?user=alice",
	} {
		resp, body := get(t, f.ts.URL+path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s on stale follower: %d %s", path, resp.StatusCode, body)
		}
		if code := errCode(t, body); code != "stale" {
			t.Fatalf("GET %s code %q, want stale", path, code)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("GET %s: stale rejection carries no Retry-After", path)
		}
	}
	// Queries read replicated data too.
	resp, body := post(t, f.ts.URL+"/query?user=alice", "application/json",
		`{"query":"top 3","current":["friends","t03","ath_r01"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /query on stale follower: %d %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != "stale" {
		t.Fatalf("POST /query code %q, want stale", code)
	}
	// The immutable environment and the probes still serve.
	resp, _ = get(t, f.ts.URL+"/env")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /env on stale follower: %d", resp.StatusCode)
	}
	resp, _ = get(t, f.ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz on stale follower: %d", resp.StatusCode)
	}
	// readyz reflects the lag so balancers drain the replica.
	resp, body = get(t, f.ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz on stale follower: %d %s", resp.StatusCode, body)
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "stale" {
		t.Fatalf("/readyz status %q, want stale", st.Status)
	}
	// Recovery: the stream catches up and reads serve again.
	f.setLag(time.Millisecond)
	resp, _ = get(t, f.ts.URL+"/preferences?user=alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /preferences after catch-up: %d", resp.StatusCode)
	}
}

func TestReadyzPromotionStates(t *testing.T) {
	f := newFollowerServer(t, time.Second)
	read := func() (int, string) {
		resp, body := get(t, f.ts.URL+"/readyz")
		var st struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st.Status
	}
	if code, status := read(); code != http.StatusOK || status != "following" {
		t.Fatalf("follower readyz: %d %q, want 200 following", code, status)
	}
	f.health.SetRole(contextpref.RolePromoting)
	if code, status := read(); code != http.StatusServiceUnavailable || status != "promoting" {
		t.Fatalf("promoting readyz: %d %q, want 503 promoting", code, status)
	}
	// Mutations stay rejected mid-promotion.
	resp, body := post(t, f.ts.URL+"/preferences?user=alice", "text/plain",
		"[accompanying_people = friends] => type = brewery : 0.9\n")
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != "read_only" {
		t.Fatalf("mutation mid-promotion: %d %s", resp.StatusCode, body)
	}
	f.health.SetRole(contextpref.RoleLeader)
	if code, status := read(); code != http.StatusOK || status != "ready" {
		t.Fatalf("promoted readyz: %d %q, want 200 ready", code, status)
	}
	// And the promoted node accepts writes again.
	resp, body = post(t, f.ts.URL+"/preferences?user=alice", "text/plain",
		"[accompanying_people = friends] => type = brewery : 0.9\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation after promotion: %d %s", resp.StatusCode, body)
	}
}

// doBody issues a request with a body for methods http.Post won't do.
func doBody(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
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
