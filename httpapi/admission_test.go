package httpapi

// Unit tests for the admission-control pieces: the token-bucket rate
// limiter (with an injected clock), request key attribution, the
// deadline-aware admit paths, and the determinism of the chaos fault
// stream.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestRateLimiterRefill(t *testing.T) {
	rl := newRateLimiter(2, 2) // 2 rps, burst 2
	now := time.Unix(1000, 0)
	rl.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if _, ok := rl.allow("k"); !ok {
			t.Fatalf("request %d within burst should pass", i)
		}
	}
	retry, ok := rl.allow("k")
	if ok {
		t.Fatal("request beyond burst should be denied")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retryAfter = %v, want in (0, 500ms] at 2 rps (got full-token wait %v)", retry, retry)
	}
	// Half a second refills one token at 2 rps.
	now = now.Add(500 * time.Millisecond)
	if _, ok := rl.allow("k"); !ok {
		t.Error("refilled token should pass")
	}
	if _, ok := rl.allow("k"); ok {
		t.Error("bucket should be empty again")
	}
}

func TestRateLimiterDefaultBurst(t *testing.T) {
	if rl := newRateLimiter(2.5, 0); rl.burst != 3 {
		t.Errorf("burst = %v, want ceil(rate) = 3", rl.burst)
	}
	if rl := newRateLimiter(0.1, 0); rl.burst != 1 {
		t.Errorf("burst = %v, want minimum 1", rl.burst)
	}
}

func TestRateLimiterSweep(t *testing.T) {
	rl := newRateLimiter(1, 1)
	now := time.Unix(1000, 0)
	rl.now = func() time.Time { return now }
	if _, ok := rl.allow("busy"); !ok {
		t.Fatal("first request should pass")
	}
	rl.buckets["stale"] = &tokenBucket{tokens: 1, last: now.Add(-time.Hour)}
	rl.sweepLocked(now)
	if _, ok := rl.buckets["stale"]; ok {
		t.Error("fully refilled bucket should be swept")
	}
	if _, ok := rl.buckets["busy"]; !ok {
		t.Error("drained bucket must survive the sweep")
	}
}

func TestRateKey(t *testing.T) {
	req := httptest.NewRequest("GET", "/env", nil)
	if k := rateKey(req); k != "default" {
		t.Errorf("bare request key = %q, want default", k)
	}
	req = httptest.NewRequest("GET", "/env?user=alice", nil)
	if k := rateKey(req); k != "alice" {
		t.Errorf("?user key = %q, want alice", k)
	}
	req.Header.Set("X-API-Key", "secret")
	if k := rateKey(req); k != "alice" {
		t.Errorf("key with an X-API-Key header = %q, want alice, the user it is served as", k)
	}

	// Malformed and escaped queries: the key is the user that
	// GET /preferences serves. Every candidate reading holds its own
	// profile, so the exported text names the user served.
	env, rel := newFixture(t)
	srv := defaultUserServer(t, env, rel, nil, "[] => type = museum : 0.1")
	for i, name := range []string{"bob", "x1", "%zz1", "a;1"} {
		u, err := srv.Directory().User(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.LoadProfile(fmt.Sprintf("[] => type = museum : 0.%d", i+2)); err != nil {
			t.Fatal(err)
		}
	}
	byProfile := map[string]string{}
	for _, name := range srv.Directory().Users() {
		u, _ := srv.Directory().Lookup(name)
		text, err := u.ExportProfile()
		if err != nil {
			t.Fatal(err)
		}
		byProfile[text] = name
	}
	for _, query := range []string{"user=%zz1", "user&user=x1", "user=a;1", "%75ser=bob"} {
		req := httptest.NewRequest("GET", "/preferences?"+query, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		served, ok := byProfile[rec.Body.String()]
		if rec.Code != http.StatusOK || !ok {
			t.Fatalf("?%s: status %d, body %q matches no user's profile", query, rec.Code, rec.Body.String())
		}
		if k := rateKey(req); k != served {
			t.Errorf("?%s: rate key %q, but served as user %q", query, k, served)
		}
	}

	// End to end: once "default" is limited, a malformed ?user that is
	// served as "default" is limited too, and so is every request that
	// brings a fresh X-API-Key: a key picks no bucket of its own.
	limited := defaultUserServer(t, env, rel, nil, "", WithRateLimit(0.001, 1))
	for _, tc := range []struct {
		target, key string
		want        int
	}{
		{"/preferences", "", http.StatusOK},
		{"/preferences", "", http.StatusTooManyRequests},
		{"/preferences?user=%zz1", "", http.StatusTooManyRequests},
		{"/preferences", "k1", http.StatusTooManyRequests},
		{"/preferences", "k2", http.StatusTooManyRequests},
		{"/preferences", "k3", http.StatusTooManyRequests},
	} {
		req := httptest.NewRequest("GET", tc.target, nil)
		if tc.key != "" {
			req.Header.Set("X-API-Key", tc.key)
		}
		rec := httptest.NewRecorder()
		limited.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("GET %s with key %q = %d, want %d", tc.target, tc.key, rec.Code, tc.want)
		}
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	if s := retryAfterSeconds(time.Millisecond); s != "1" {
		t.Errorf("tiny wait = %q, want minimum 1", s)
	}
	if s := retryAfterSeconds(2300 * time.Millisecond); s != "3" {
		t.Errorf("2.3s wait = %q, want ceil 3", s)
	}
}

func TestEstimateQueueWait(t *testing.T) {
	s := &Server{sem: make(chan struct{}, 2)}
	if est := s.estimateQueueWait(); est != 0 {
		t.Errorf("estimate before any observation = %v, want 0", est)
	}
	s.observeService(100 * time.Millisecond)
	// One waiter (this request) over 2 slots draining every 100ms.
	if est := s.estimateQueueWait(); est < 40*time.Millisecond || est > 60*time.Millisecond {
		t.Errorf("estimate = %v, want ~50ms", est)
	}
}

// admitFixture returns a server whose single inflight slot is already
// taken, so admit must queue or reject.
func admitFixture() *Server {
	s := &Server{sem: make(chan struct{}, 1)}
	s.sem <- struct{}{}
	return s
}

func TestAdmitOverloadedWithoutDeadline(t *testing.T) {
	s := admitFixture()
	rec := httptest.NewRecorder()
	if s.admit(rec, httptest.NewRequest("GET", "/env", nil)) {
		t.Fatal("full semaphore without deadline should shed")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "overloaded" {
		t.Errorf("code = %q, want overloaded", e.Code)
	}
}

func TestAdmitDeadlineWhileQueued(t *testing.T) {
	s := admitFixture()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("GET", "/env", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	if s.admit(rec, req) {
		t.Fatal("deadline should fire before a slot frees")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("admit blocked %v past the deadline", elapsed)
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "deadline" {
		t.Errorf("code = %q, want deadline", e.Code)
	}
}

func TestAdmitPredictiveShed(t *testing.T) {
	s := admitFixture()
	s.observeService(2 * time.Second) // EWMA far beyond any test deadline
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("GET", "/env", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	if s.admit(rec, req) {
		t.Fatal("predicted queue wait beyond the deadline should shed on arrival")
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "shed" {
		t.Errorf("code = %q, want shed", e.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
}

func TestAdmitReleasedSlot(t *testing.T) {
	s := &Server{sem: make(chan struct{}, 1)}
	rec := httptest.NewRecorder()
	if !s.admit(rec, httptest.NewRequest("GET", "/env", nil)) {
		t.Fatal("free slot should admit immediately")
	}
	<-s.sem // release like ServeHTTP's deferred drain
	if !s.admit(httptest.NewRecorder(), httptest.NewRequest("GET", "/env", nil)) {
		t.Fatal("released slot should admit the next request")
	}
}

func TestChaosDeterministicStream(t *testing.T) {
	cfg := ChaosConfig{Latency: time.Millisecond, Jitter: 50 * time.Millisecond, ErrorRate: 0.3, Seed: 7}
	a := &chaos{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	b := &chaos{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for i := 0; i < 100; i++ {
		da, fa := a.draw()
		db, fb := b.draw()
		if da != db || fa != fb {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, da, fa, db, fb)
		}
	}
}

func TestWithChaosZeroConfigDisabled(t *testing.T) {
	s := &Server{}
	WithChaos(ChaosConfig{Seed: 99})(s)
	if s.chaos != nil {
		t.Error("zero fault rates should leave chaos disabled")
	}
	WithChaos(ChaosConfig{ErrorRate: 1})(s)
	if s.chaos == nil {
		t.Fatal("error-rate config should install chaos")
	}
	rec := httptest.NewRecorder()
	if !s.chaos.intercept(s, rec, httptest.NewRequest("GET", "/env", nil)) {
		t.Fatal("ErrorRate 1 must fail every request")
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "chaos" {
		t.Errorf("code = %q, want chaos", e.Code)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
}
