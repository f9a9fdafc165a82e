package httpapi

// Overload-resilience tests: with a server deadline, admission control,
// and chaos-injected latency longer than the deadline, every response
// must be a structured error — no hung requests, no goroutine leaks —
// and a departed client stops the underlying resolution scan early.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"contextpref"
	"contextpref/internal/dataset"
	"contextpref/internal/telemetry"
)

// overloadServer serves user "default" over the real environment with
// a profile wide enough that context resolution scans well past one
// cancellation-check window (one preference per location region).
func overloadServer(t *testing.T, sysOpts []contextpref.Option, opts ...ServerOption) *Server {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	var profile strings.Builder
	for r := 1; r <= 60; r++ {
		fmt.Fprintf(&profile, "[location = ath_r%02d] => type = museum : 0.5\n", r)
	}
	for r := 1; r <= 40; r++ {
		fmt.Fprintf(&profile, "[location = the_r%02d] => type = park : 0.5\n", r)
	}
	return defaultUserServer(t, env, rel, sysOpts, profile.String(), opts...)
}

func TestRequestTimeoutDeadline(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := overloadServer(t, nil,
		WithRequestTimeout(30*time.Millisecond),
		WithChaos(ChaosConfig{Latency: 300 * time.Millisecond, Seed: 1}),
		WithTelemetry(reg))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/resolve?state=friends,t03,ath_r01", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "deadline" {
		t.Errorf("code = %q, want deadline", e.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("deadline response missing Retry-After")
	}
	if n := reg.Counter("cp_request_timeouts_total", "").Value(); n != 1 {
		t.Errorf("cp_request_timeouts_total = %d, want 1", n)
	}
	// Probes bypass the deadline and the chaos latency entirely.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("probe status = %d, want 200", rec.Code)
	}
}

// TestRateLimitPerUser pins the bucket to the user a request is served
// as: a second key on the same user shares its bucket, and another
// ?user has its own.
func TestRateLimitPerUser(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := overloadServer(t, nil, WithRateLimit(1, 1), WithTelemetry(reg))
	do := func(target, key string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", target, nil)
		req.Header.Set("X-API-Key", key)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	if rec := do("/env?user=alice", "k1"); rec.Code != http.StatusOK {
		t.Fatalf("first request: status = %d, want 200", rec.Code)
	}
	rec := do("/env?user=alice", "k1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: status = %d, want 429", rec.Code)
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "rate_limited" {
		t.Errorf("code = %q, want rate_limited", e.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("rate-limited response missing Retry-After")
	}
	// Another key on the same user shares the user's bucket.
	if rec := do("/env?user=alice", "k2"); rec.Code != http.StatusTooManyRequests {
		t.Errorf("second key on the same user: status = %d, want 429", rec.Code)
	}
	// A different user has its own bucket.
	if rec := do("/env?user=bob", "k1"); rec.Code != http.StatusOK {
		t.Errorf("other user: status = %d, want 200", rec.Code)
	}
	if n := reg.Counter("cp_rate_limited_total", "").Value(); n != 2 {
		t.Errorf("cp_rate_limited_total = %d, want 2", n)
	}
}

// TestOverloadAllStructuredErrors is the chaos-driven acceptance test:
// injected latency far beyond the server deadline over a tiny inflight
// budget. Every concurrent request must still get a structured
// deadline/shed answer within bounded time, and the goroutine count
// must return to its baseline (nothing hung, nothing leaked).
func TestOverloadAllStructuredErrors(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	srv := overloadServer(t, nil,
		WithMaxInflight(2),
		WithRequestTimeout(40*time.Millisecond),
		WithChaos(ChaosConfig{Latency: 200 * time.Millisecond, Jitter: 50 * time.Millisecond, Seed: 42}),
		WithTelemetry(reg))
	ts := httptest.NewServer(srv)
	client := &http.Client{Timeout: 30 * time.Second}

	const n = 24
	type result struct {
		status int
		code   string
		err    error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Get(ts.URL + "/resolve?state=friends,t03,ath_r01")
			if err != nil {
				results[i] = result{err: err}
				return
			}
			defer resp.Body.Close()
			var e errBody
			derr := json.NewDecoder(resp.Body).Decode(&e)
			results[i] = result{status: resp.StatusCode, code: e.Code, err: derr}
		}(i)
	}
	wg.Wait()

	sawDeadline := false
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d did not complete cleanly: %v", i, r.err)
		}
		switch r.code {
		case "deadline":
			sawDeadline = true
		case "shed":
		default:
			t.Errorf("request %d: status %d code %q — not a structured overload error", i, r.status, r.code)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Errorf("request %d: status = %d, want 503", i, r.status)
		}
	}
	if !sawDeadline {
		t.Error("no request hit the chaos-latency deadline path")
	}
	if n := reg.Counter("cp_request_timeouts_total", "").Value(); n == 0 {
		t.Error("cp_request_timeouts_total = 0, want > 0")
	}
	if n := reg.CounterVec("cp_chaos_injected_total", "", "kind").With("latency").Value(); n == 0 {
		t.Error("cp_chaos_injected_total{kind=latency} = 0, want > 0")
	}

	client.CloseIdleConnections()
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", g, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCanceledClientStopsScan proves a departed client stops the
// resolution scan early: the cells-visited counter advances far less
// for a cancelled request than for the same request run to completion,
// and the response is the structured 499.
func TestCanceledClientStopsScan(t *testing.T) {
	sysReg := contextpref.NewTelemetryRegistry()
	srv := overloadServer(t, []contextpref.Option{contextpref.WithTelemetry(sysReg)})
	cells := sysReg.Counter("cp_resolve_cells_total", "")

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/resolve?state=friends,t03,ath_r01", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("full resolve: status = %d body %s", rec.Code, rec.Body.String())
	}
	fullCells := cells.Value()
	if fullCells == 0 {
		t.Fatal("fixture broken: full resolve visited no cells")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/resolve?state=friends,t03,ath_r01", nil).WithContext(ctx)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "canceled" {
		t.Errorf("code = %q, want canceled", e.Code)
	}
	canceledCells := cells.Value() - fullCells
	if canceledCells == 0 {
		t.Error("cancelled resolve not visible in cp_resolve_cells_total")
	}
	if canceledCells >= fullCells {
		t.Errorf("cancelled resolve visited %d cells, full resolve %d — scan did not stop early",
			canceledCells, fullCells)
	}

	// The query path classifies cancellation the same way.
	body := `{"query":"","current":["friends","t03","ath_r01"]}`
	req = httptest.NewRequest("POST", "/query", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("query status = %d body %s, want %d", rec.Code, rec.Body.String(), statusClientClosedRequest)
	}
	if e := decodeErr(t, rec.Body.String()); e.Code != "canceled" {
		t.Errorf("query code = %q, want canceled", e.Code)
	}
}
