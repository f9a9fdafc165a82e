package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// cfg returns a config mirroring the old positional build arguments,
// with serving-layer knobs at test-friendly defaults.
func cfg(pois int, seed int64, metric, profile string, cache int, data string) config {
	return config{
		pois: pois, seed: seed, metric: metric, profile: profile,
		cache: cache, data: data,
		readTimeout: 5 * time.Second, writeTimeout: 5 * time.Second,
		idleTimeout: 5 * time.Second, shutdownTimeout: 5 * time.Second,
	}
}

// closeJournals closes a built app's journal segments without
// compacting them, as a crash would leave them.
func closeJournals(a *app) {
	for _, j := range a.journals {
		j.Close()
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBuildAndServe(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "profile.cp")
	if err := os.WriteFile(profile,
		[]byte("[accompanying_people = friends] => type = brewery : 0.9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := build(cfg(50, 7, "hierarchy", profile, 16, ""))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.api)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); !strings.Contains(body, `"Preferences":1`) {
		t.Errorf("stats = %s", body)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := build(cfg(0, 1, "jaccard", "", 0, "")); err == nil {
		t.Error("zero POIs should fail")
	}
	if _, err := build(cfg(10, 1, "euclidean", "", 0, "")); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, err := build(cfg(10, 1, "jaccard", "/nonexistent", 0, "")); err == nil {
		t.Error("missing profile should fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.cp")
	os.WriteFile(bad, []byte("garbage"), 0o644)
	if _, err := build(cfg(10, 1, "jaccard", bad, 0, "")); err == nil {
		t.Error("bad profile should fail")
	}
	// A profile whose lines conflict under Def. 6 could seed no user.
	conflicting := filepath.Join(dir, "conflicting.cp")
	os.WriteFile(conflicting, []byte("[accompanying_people = friends] => type = brewery : 0.9\n"+
		"[accompanying_people = friends] => type = brewery : 0.2\n"), 0o644)
	if _, err := build(cfg(10, 1, "jaccard", conflicting, 0, "")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("self-conflicting profile: build error = %v, want one naming line 2", err)
	}
	// Cache disabled still builds.
	if _, err := build(cfg(10, 1, "jaccard", "", -1, "")); err != nil {
		t.Errorf("cache disabled: %v", err)
	}
	// A store path that is an existing file fails cleanly.
	blocked := filepath.Join(dir, "file-not-dir")
	os.WriteFile(blocked, nil, 0o644)
	c := cfg(10, 1, "jaccard", "", 0, "")
	c.store = blocked
	if _, err := build(c); err == nil {
		t.Error("store at a regular file should fail")
	}
}

func TestBuildWithCSVData(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "pois.csv")
	csvText := `pid,name,type,location,open_air,hours_of_operation,admission_cost
1,Test Museum,museum,ath_r01,false,09:00-17:00,5
2,Test Brewery,brewery,the_r02,false,12:00-24:00,0
`
	if err := os.WriteFile(data, []byte(csvText), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := build(cfg(0, 0, "jaccard", "", 16, data))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.api)
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query": "top 5 context location = Athens"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	// Bad CSV fails.
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("nope"), 0o644)
	if _, err := build(cfg(0, 0, "jaccard", "", 16, bad)); err == nil {
		t.Error("bad CSV should fail")
	}
	if _, err := build(cfg(0, 0, "jaccard", "", 16, "/nonexistent.csv")); err == nil {
		t.Error("missing CSV should fail")
	}
}

func TestBuildMultiUser(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "seed.cp")
	os.WriteFile(profile, []byte("# seed\n[accompanying_people = friends] => type = brewery : 0.9\n"), 0o644)
	a, err := build(cfg(30, 7, "jaccard", profile, 16, ""))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.api)
	defer ts.Close()
	// Two users, both seeded, isolated.
	for _, user := range []string{"alice", "bob"} {
		resp, err := ts.Client().Get(ts.URL + "/stats?user=" + user)
		if err != nil {
			t.Fatal(err)
		}
		if body := readBody(t, resp); !strings.Contains(body, `"Preferences":1`) {
			t.Errorf("%s stats = %s", user, body)
		}
	}
	// A bad seed profile fails at build time.
	badSeed := filepath.Join(dir, "bad.cp")
	os.WriteFile(badSeed, []byte("garbage"), 0o644)
	if _, err := build(cfg(30, 7, "jaccard", badSeed, 16, "")); err == nil {
		t.Error("bad seed profile should fail")
	}
}

// TestCrashRecoveryHTTP is the acceptance path: load a profile over
// HTTP, crash the server without a snapshot — including a torn final
// journal record — restart on the same store, and get identical
// /preferences and /stats.
func TestCrashRecoveryHTTP(t *testing.T) {
	store := t.TempDir()
	c := cfg(50, 7, "jaccard", "", 16, "")
	c.store = store

	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.api)
	profile := `[accompanying_people = friends] => type = brewery : 0.9
[time in {t01, t02}] => type = museum : 0.8
[] => type = park : 0.4`
	resp, err := ts.Client().Post(ts.URL+"/preferences", "text/plain", strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Fatalf("add = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/preferences", strings.NewReader("[] => type = park : 0.4"))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Fatalf("remove = %d", resp.StatusCode)
	}
	resp, _ = ts.Client().Get(ts.URL + "/preferences")
	wantExport := readBody(t, resp)
	resp, _ = ts.Client().Get(ts.URL + "/stats")
	wantStats := readBody(t, resp)
	ts.Close()
	// Crash: close the journal without snapshotting, then tear the tail
	// by appending half a record, as if the process died mid-write.
	closeJournals(a)
	jpath := filepath.Join(store, "shard-000", "journal.cpj")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("A\t99\t\"\"\tdead"); err != nil { // no newline, no payload
		t.Fatal(err)
	}
	f.Close()

	a2, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	defer closeJournals(a2)
	ts2 := httptest.NewServer(a2.api)
	defer ts2.Close()
	resp, _ = ts2.Client().Get(ts2.URL + "/preferences")
	if got := readBody(t, resp); got != wantExport {
		t.Errorf("recovered export:\n%s\nwant:\n%s", got, wantExport)
	}
	resp, _ = ts2.Client().Get(ts2.URL + "/stats")
	if got := readBody(t, resp); got != wantStats {
		t.Errorf("recovered stats = %s, want %s", got, wantStats)
	}
}

// TestStoreIgnoresProfileWhenRecovered: -profile seeds new users only;
// a user recovered from the store keeps its journaled profile instead
// of being seeded again (the seed would double, or conflict with it).
func TestStoreIgnoresProfileWhenRecovered(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	seed := filepath.Join(dir, "seed.cp")
	os.WriteFile(seed, []byte("[accompanying_people = friends] => type = brewery : 0.9\n"), 0o644)

	c := cfg(30, 7, "jaccard", seed, 16, "")
	c.store = store
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	u, err := a.api.Directory().User("default")
	if err != nil {
		t.Fatal(err)
	}
	if n := u.NumPreferences(); n != 1 {
		t.Fatalf("fresh store seeded %d preferences", n)
	}
	closeJournals(a)

	a2, err := build(c) // same store, same -profile
	if err != nil {
		t.Fatal(err)
	}
	defer closeJournals(a2)
	for _, name := range []string{"default", "bob"} { // recovered, then new
		u, err := a2.api.Directory().User(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := u.NumPreferences(); got != 1 {
			t.Errorf("restart with -profile: %s has %d preferences, want 1", name, got)
		}
	}
}

// TestServeGracefulShutdown: cancelling the serve context (what SIGTERM
// does in main) drains in-flight requests to completion, flips /readyz
// to draining, and compacts the journal into a snapshot.
func TestServeGracefulShutdown(t *testing.T) {
	store := t.TempDir()
	c := cfg(30, 7, "jaccard", "", 16, "")
	c.store = store
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(ctx, a, ln, nil, c) }()

	// Wait for the server to accept.
	var up bool
	for i := 0; i < 100; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			up = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !up {
		t.Fatal("server never came up")
	}

	// An in-flight request that trickles its body in while shutdown
	// begins; it must complete with 200, not be cut off.
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	inflight := make(chan int, 1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest("POST", base+"/preferences", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	pw.Write([]byte("[accompanying_people = friends] "))
	time.Sleep(20 * time.Millisecond) // let the handler start reading

	cancel() // SIGTERM

	// While draining, readiness reports 503 (new connections are still
	// accepted until Shutdown closes the listener, so this may race with
	// the listener closing; either observation is a pass). The serve
	// loop observes the cancellation asynchronously, so a probe that
	// lands before it still sees "ready"; poll until the drain shows.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("readyz during drain = %d %s", resp.StatusCode, body)
			break
		}
	}

	// Finish the in-flight request.
	pw.Write([]byte("=> type = brewery : 0.9\n"))
	pw.Close()
	wg.Wait()
	if got := <-inflight; got != http.StatusOK {
		t.Errorf("in-flight request during drain = %d, want 200", got)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain")
	}

	// The shutdown snapshot compacted the journal: state lives in
	// snapshot.cpj and the in-flight preference survives a restart.
	snap, err := os.ReadFile(filepath.Join(store, "shard-000", "snapshot.cpj"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "brewery") {
		t.Errorf("snapshot missing drained mutation:\n%s", snap)
	}
	a2, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	defer closeJournals(a2)
	u, ok := a2.api.Directory().Lookup("default")
	if !ok {
		t.Fatal("restart after graceful shutdown lost the default user")
	}
	if got := u.NumPreferences(); got != 1 {
		t.Errorf("restart after graceful shutdown: %d preferences, want 1", got)
	}
}

// TestServeMultiUserStore: end-to-end multi-user durability through
// build/serve, including a dropped-in preference per user.
func TestServeMultiUserStore(t *testing.T) {
	store := t.TempDir()
	c := cfg(30, 7, "jaccard", "", 16, "")
	c.store = store
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.api)
	for i, user := range []string{"alice", "bob"} {
		pref := fmt.Sprintf("[time = t%02d] => type = museum : 0.%d", i+1, i+5)
		resp, err := ts.Client().Post(ts.URL+"/preferences?user="+user, "text/plain", strings.NewReader(pref))
		if err != nil {
			t.Fatal(err)
		}
		if readBody(t, resp); resp.StatusCode != 200 {
			t.Fatalf("add for %s = %d", user, resp.StatusCode)
		}
	}
	ts.Close()
	closeJournals(a) // crash

	a2, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	defer closeJournals(a2)
	ts2 := httptest.NewServer(a2.api)
	defer ts2.Close()
	resp, err := ts2.Client().Get(ts2.URL + "/users")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); !strings.Contains(body, "alice") || !strings.Contains(body, "bob") {
		t.Errorf("recovered users = %s", body)
	}
	for _, user := range []string{"alice", "bob"} {
		resp, err := ts2.Client().Get(ts2.URL + "/stats?user=" + user)
		if err != nil {
			t.Fatal(err)
		}
		if body := readBody(t, resp); !strings.Contains(body, `"Preferences":1`) {
			t.Errorf("%s recovered stats = %s", user, body)
		}
	}
}

// TestServeDegradedRecovery: a degraded store flips /readyz and
// mutations to 503 while reads keep serving, and the background probe
// loop started by serve() returns the server to healthy automatically.
func TestServeDegradedRecovery(t *testing.T) {
	store := t.TempDir()
	c := cfg(30, 7, "jaccard", "", 16, "")
	c.store = store
	c.probeInterval = 10 * time.Millisecond
	// The probe is gated so the degraded window is observable: the real
	// journal probe would succeed (the disk is fine — the failure below
	// is synthetic) and recover the store the instant the degrade
	// transition wakes the probe loop.
	var diskOK atomic.Bool
	c.probe = func() error {
		if !diskOK.Load() {
			return fmt.Errorf("synthetic disk failure")
		}
		return nil
	}
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.healths) != 1 {
		t.Fatalf("build with -store created %d health trackers, want 1", len(a.healths))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(ctx, a, ln, nil, c) }()
	var up bool
	for i := 0; i < 100; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			up = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !up {
		t.Fatal("server never came up")
	}
	// The default user exists before the failure: reads of known users
	// keep serving while degraded, but creating one is a mutation.
	resp, err := http.Get(base + "/preferences")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET while healthy = %d", resp.StatusCode)
	}

	// Simulate a persistence failure: the store goes read-only.
	a.healths[0].MarkDegraded(fmt.Errorf("synthetic disk failure"))
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, `"shards":[{"shard":0,"status":"degraded"}]`) {
		t.Fatalf("readyz while degraded = %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Post(base+"/preferences", "text/plain",
		strings.NewReader("[] => type = park : 0.4"))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, `"code":"degraded"`) || !strings.Contains(body, `"shard":0`) {
		t.Fatalf("POST while degraded = %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/preferences")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET while degraded = %d", resp.StatusCode)
	}

	// The disk "heals": the next probe succeeds and the loop recovers
	// the store.
	diskOK.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe loop never recovered the store")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = http.Post(base+"/preferences", "text/plain",
		strings.NewReader("[] => type = park : 0.4"))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST after recovery = %d: %s", resp.StatusCode, body)
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

func TestBuildWithLimitsAndChaos(t *testing.T) {
	c := cfg(20, 7, "hierarchy", "", 16, "")
	c.requestTimeout = time.Second
	c.rateLimit = 0.001 // one request, then a ~1000s refill
	c.rateBurst = 1
	c.chaosErrorRate = 1
	c.chaosSeed = 1
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.api)
	defer ts.Close()

	// Chaos error rate 1 fails every admitted request with 500 "chaos".
	resp, err := ts.Client().Get(ts.URL + "/env")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusInternalServerError ||
		!strings.Contains(body, `"chaos"`) {
		t.Errorf("chaos request: status %d body %s", resp.StatusCode, body)
	}

	// The burst is spent: the next request is rate limited before chaos.
	resp, err = ts.Client().Get(ts.URL + "/env")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusTooManyRequests ||
		!strings.Contains(body, `"rate_limited"`) {
		t.Errorf("rate-limited request: status %d body %s", resp.StatusCode, body)
	}

	// Probes bypass chaos and the limiter.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("probe status = %d, want 200", resp.StatusCode)
	}
}

// TestBuildReplicationFlagErrors: the replication flags demand the
// stores they need at build time, not at first use.
func TestBuildReplicationFlagErrors(t *testing.T) {
	c := cfg(10, 1, "jaccard", "", 0, "")
	c.follow = "localhost:1"
	if _, err := build(c); err == nil {
		t.Error("-follow without -store should fail")
	}
	c.store = t.TempDir()
	a, err := build(c)
	if err != nil {
		t.Fatalf("-follow with -store: %v", err)
	}
	if a.follower == nil || a.follower.Segments() != 1 {
		t.Fatalf("follower = %+v, want one segment stream", a.follower)
	}
	closeJournals(a)
	c = cfg(10, 1, "jaccard", "", 0, "")
	c.replicateAddr = "127.0.0.1:0"
	if _, err := build(c); err == nil {
		t.Error("-replicate-addr without -store should fail")
	}
}

// TestServeReplicationFailover is the binary-level failover drill: a
// leader ships to a follower over TCP, the follower serves the
// replicated state read-only, and SIGUSR1 promotes it into a writable
// leader.
func TestServeReplicationFailover(t *testing.T) {
	failoverDrill(t, "?user=alice")
}

// TestServeReplicationFailoverDefaultUser runs the drill with no ?user
// on any request, so every write lands on the default user of a
// one-shard store: the leader must ship records the follower can
// graft.
func TestServeReplicationFailoverDefaultUser(t *testing.T) {
	failoverDrill(t, "")
}

func failoverDrill(t *testing.T, query string) {
	// serve logs the replication listener's address rather than
	// returning it, so pick a free loopback port with a throwaway
	// listener and hand the leader that fixed address.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replAddr := probe.Addr().String()
	probe.Close()

	lc := cfg(30, 7, "jaccard", "", 16, "")
	lc.store = t.TempDir()
	lc.replicateAddr = replAddr
	lc.probeInterval = time.Hour
	la, err := build(lc)
	if err != nil {
		t.Fatal(err)
	}
	lln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- serve(lctx, la, lln, nil, lc) }()
	leaderBase := "http://" + lln.Addr().String()

	// Follower tailing the leader.
	fc := cfg(30, 7, "jaccard", "", 16, "")
	fc.store = t.TempDir()
	fc.follow = replAddr
	fc.maxStaleness = 5 * time.Second
	fc.probeInterval = time.Hour
	fa, err := build(fc)
	if err != nil {
		t.Fatal(err)
	}
	if fa.follower == nil || fa.promote == nil {
		t.Fatal("follower build wired no replication loop")
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	followerErr := make(chan error, 1)
	go func() { followerErr <- serve(fctx, fa, fln, nil, fc) }()
	followerBase := "http://" + fln.Addr().String()

	waitUp := func(base string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("server at %s never came up", base)
	}
	waitUp(leaderBase)
	waitUp(followerBase)

	// Mutate the leader; the follower must reject the same mutation and
	// then serve the replicated result.
	pref := "[accompanying_people = friends] => type = brewery : 0.9\n"
	resp, err := http.Post(leaderBase+"/preferences"+query, "text/plain", strings.NewReader(pref))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader POST = %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(followerBase+"/preferences"+query, "text/plain", strings.NewReader(pref))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, "read_only") {
		t.Fatalf("follower POST = %d %s, want 503 read_only", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(followerBase + "/preferences" + query)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode == http.StatusOK && strings.Contains(body, "brewery") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served the replicated preference: %d %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err = http.Get(followerBase + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.Contains(body, "following") {
		t.Fatalf("follower readyz = %d %s, want 200 following", resp.StatusCode, body)
	}

	// Failover: kill the leader, promote the follower by operator
	// signal, and write to it.
	lcancel()
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader serve returned %v", err)
	}
	syscall.Kill(os.Getpid(), syscall.SIGUSR1)
	for {
		resp, err := http.Get(followerBase + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode == http.StatusOK && strings.Contains(body, `"status":"ready"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never promoted: %d %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err = http.Post(followerBase+"/preferences"+query, "text/plain",
		strings.NewReader("[time = t01] => type = museum : 0.7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted POST = %d %s", resp.StatusCode, body)
	}
	fcancel()
	if err := <-followerErr; err != nil {
		t.Fatalf("follower serve returned %v", err)
	}
}
