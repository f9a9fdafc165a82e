package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contextpref/internal/telemetry"
)

// telemetryServer builds a server with a fresh registry, a
// buffer-backed structured logger, and any extra options, plus a /boom
// route for exercising panic recovery.
func telemetryServer(t *testing.T, opts ...ServerOption) (*httptest.Server, *telemetry.Registry, *bytes.Buffer) {
	t.Helper()
	env, rel := newFixture(t)
	reg := telemetry.NewRegistry()
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	srv := defaultUserServer(t, env, rel, nil, "", append([]ServerOption{
		WithTelemetry(reg),
		WithLogger(logger),
	}, opts...)...)
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, reg, &logs
}

func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRequestMetrics: served requests show up in cp_http_requests_total
// with endpoint/method/code labels, the latency histogram counts them,
// and the in-flight gauge returns to zero.
func TestRequestMetrics(t *testing.T) {
	ts, reg, _ := telemetryServer(t)

	for i := 0; i < 3; i++ {
		if resp, _ := get(t, ts.URL+"/env"); resp.StatusCode != http.StatusOK {
			t.Fatalf("/env = %d", resp.StatusCode)
		}
	}
	if resp, _ := get(t, ts.URL+"/no-such-route"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route = %d", resp.StatusCode)
	}

	out := scrape(t, reg)
	for _, want := range []string{
		`cp_http_requests_total{endpoint="/env",method="GET",code="200"} 3`,
		`cp_http_requests_total{endpoint="other",method="GET",code="404"} 1`,
		`cp_http_request_seconds_count{endpoint="/env"} 3`,
		"cp_http_inflight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestPanicMetricsAndRequestID: a recovered panic increments
// cp_http_panics_total, is counted as a 500 response, and the recovery
// log line carries the request ID the client received.
func TestPanicMetricsAndRequestID(t *testing.T) {
	ts, reg, logs := telemetryServer(t)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/boom", nil)
	req.Header.Set("X-Request-ID", "rid-panic-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "rid-panic-42" {
		t.Errorf("request id not echoed: %q", got)
	}

	out := scrape(t, reg)
	for _, want := range []string{
		"cp_http_panics_total 1",
		`cp_http_requests_total{endpoint="other",method="GET",code="500"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}

	logged := logs.String()
	if !strings.Contains(logged, "panic serving request") {
		t.Fatalf("no recovery log line:\n%s", logged)
	}
	if !strings.Contains(logged, "request_id=rid-panic-42") {
		t.Errorf("recovery log missing request id:\n%s", logged)
	}
	if !strings.Contains(logged, "kaboom") {
		t.Errorf("recovery log missing panic value:\n%s", logged)
	}
}

// TestSlowRequestLog: requests at or over the threshold emit a Warn
// line with the request ID, path, status, and duration.
func TestSlowRequestLog(t *testing.T) {
	ts, _, logs := telemetryServer(t, WithSlowRequestThreshold(time.Nanosecond))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "rid-slow-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	logged := logs.String()
	if !strings.Contains(logged, "slow request") {
		t.Fatalf("no slow-request log:\n%s", logged)
	}
	for _, want := range []string{
		"request_id=rid-slow-7", "path=/healthz", "status=200", "duration=",
	} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-request log missing %q:\n%s", want, logged)
		}
	}
}

// TestShedMetrics: requests shed by the concurrency limiter count into
// cp_http_shed_total and are recorded as 503s.
func TestShedMetrics(t *testing.T) {
	ts, reg, _ := telemetryServer(t, WithMaxInflight(1))

	// Saturate the limiter deterministically by taking its only slot.
	srv := tsHandler(t, ts)
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	resp, body := get(t, ts.URL+"/env")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected shed, got %d %q", resp.StatusCode, body)
	}
	out := scrape(t, reg)
	for _, want := range []string{
		"cp_http_shed_total 1",
		`cp_http_requests_total{endpoint="/env",method="GET",code="503"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// tsHandler digs the *Server back out of the httptest.Server config.
func tsHandler(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	srv, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("handler is %T, not *Server", ts.Config.Handler)
	}
	return srv
}

// TestTelemetryDisabled: without WithTelemetry every endpoint works and
// nothing is registered anywhere — the no-op path.
func TestTelemetryDisabled(t *testing.T) {
	env, rel := newFixture(t)
	var logs bytes.Buffer
	srv := defaultUserServer(t, env, rel, nil, "", WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, _ := get(t, ts.URL+"/env"); resp.StatusCode != http.StatusOK {
		t.Errorf("/env = %d", resp.StatusCode)
	}
	// Panic recovery must not trip over the nil metrics handle.
	if resp, _ := get(t, ts.URL+"/boom"); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("/boom = %d", resp.StatusCode)
	}
	if !strings.Contains(logs.String(), "panic serving request") {
		t.Error("recovery log missing without telemetry")
	}
}

// TestMetricsEndpointFormat: every non-comment line the registry emits
// is a parseable "name{labels} value" pair and the core families carry
// TYPE headers — the contract a Prometheus scraper relies on.
func TestMetricsEndpointFormat(t *testing.T) {
	ts, reg, _ := telemetryServer(t)
	if resp, _ := get(t, ts.URL+"/env"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/env failed: %d", resp.StatusCode)
	}

	mts := httptest.NewServer(reg.MetricsHandler())
	defer mts.Close()
	resp, body := get(t, mts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		var name string
		var value float64
		rest := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if j := strings.LastIndex(rest, " "); j >= 0 {
			if _, err := fmt.Sscanf(rest[j+1:], "%g", &value); err != nil {
				t.Errorf("unparseable value in line %q: %v", line, err)
			}
		} else {
			t.Errorf("no value in line %q", line)
		}
		if name == "" {
			t.Errorf("no metric name in line %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE cp_http_requests_total counter",
		"# TYPE cp_http_request_seconds histogram",
		"# TYPE cp_http_inflight_requests gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in metrics output", want)
		}
	}

	// /varz must be valid JSON mirroring the same names.
	vts := httptest.NewServer(reg.VarzHandler())
	defer vts.Close()
	resp, body = get(t, vts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("varz = %d", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("varz not JSON: %v\n%s", err, body)
	}
	if _, ok := snap["cp_http_inflight_requests"]; !ok {
		t.Errorf("varz missing cp_http_inflight_requests: %v", snap)
	}
}
