package contextpref_test

// Middleware-overhead benchmark for the serving hot path: the same
// /resolve request through a bare server and through one with the
// request deadline, rate limiter, and admission semaphore all enabled
// but idle (limits far above what one sequential client can trigger).
// The delta is the per-request cost of the admission layer, which the
// robustness work keeps under a few percent.

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"contextpref"
	"contextpref/httpapi"
	"contextpref/internal/dataset"
)

func benchServer(tb testing.TB, opts ...httpapi.ServerOption) *httpapi.Server {
	tb.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := dataset.POIs(env, 120, 7)
	if err != nil {
		tb.Fatal(err)
	}
	profile := ""
	for r := 1; r <= 20; r++ {
		profile += fmt.Sprintf("[location = ath_r%02d] => type = museum : 0.5\n", r)
	}
	return defaultUserServer(tb, env, rel, nil, profile, opts...)
}

// defaultUserServer serves a one-shard directory whose user "default"
// holds profile, so requests without ?user reach it; sysOpts configure
// every per-user System.
func defaultUserServer(tb testing.TB, env *contextpref.Environment, rel *contextpref.Relation,
	sysOpts []contextpref.Option, profile string, opts ...httpapi.ServerOption) *httpapi.Server {
	tb.Helper()
	dir, err := contextpref.NewDirectory(env, rel, contextpref.WithSystemOptions(sysOpts...))
	if err != nil {
		tb.Fatal(err)
	}
	user, err := dir.User("default")
	if err != nil {
		tb.Fatal(err)
	}
	if err := user.LoadProfile(profile); err != nil {
		tb.Fatal(err)
	}
	srv, err := httpapi.NewMultiUser(dir, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// resolveAllocBudget caps the allocations of one GET /resolve through
// the bare server, httptest's recorder included: the query string is
// read in place, never parsed into a url.Values.
const resolveAllocBudget = 30

// TestResolveAllocBudget pins BenchmarkResolveHTTPMiddleware/bare's
// allocations per request with testing.AllocsPerRun.
func TestResolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random; the budget is the production figure")
	}
	srv := benchServer(t)
	req := httptest.NewRequest("GET", "/resolve?state=friends,t03,ath_r01", nil)
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status = %d body %s", rec.Code, rec.Body.String())
		}
	})
	t.Logf("GET /resolve: %.0f allocs per request, budget %d", allocs, resolveAllocBudget)
	if allocs > resolveAllocBudget {
		t.Errorf("GET /resolve allocates %.0f times per request, budget %d", allocs, resolveAllocBudget)
	}
}

func benchResolve(b *testing.B, srv *httpapi.Server) {
	b.Helper()
	req := httptest.NewRequest("GET", "/resolve?state=friends,t03,ath_r01", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d body %s", rec.Code, rec.Body.String())
		}
	}
}

func BenchmarkResolveHTTPMiddleware(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		benchResolve(b, benchServer(b))
	})
	b.Run("limits_idle", func(b *testing.B) {
		benchResolve(b, benchServer(b,
			httpapi.WithRequestTimeout(time.Minute),
			httpapi.WithRateLimit(1e9, 1<<30),
			httpapi.WithMaxInflight(64)))
	})
}
