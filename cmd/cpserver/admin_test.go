package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAdminEndpoints is the acceptance path for the telemetry layer:
// build a server with a durable store, drive preference and resolution
// traffic through the public API, then scrape the admin handler and
// check the Prometheus output covers HTTP requests, resolution cells
// visited, and journal fsync latency.
func TestAdminEndpoints(t *testing.T) {
	c := cfg(50, 7, "jaccard", "", 16, "")
	c.store = t.TempDir()
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	defer closeJournals(a)
	ts := httptest.NewServer(a.api)
	defer ts.Close()
	admin := httptest.NewServer(a.admin)
	defer admin.Close()

	// Traffic: a journaled mutation (the default user's creation, then
	// the add: two appends), a resolution, and a query.
	resp, err := ts.Client().Post(ts.URL+"/preferences", "text/plain",
		strings.NewReader("[accompanying_people = friends] => type = brewery : 0.9"))
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Fatalf("add = %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/resolve?state=friends,t01,ath_r01")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Fatalf("resolve = %d", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query": "top 5", "current": ["friends", "t01", "ath_r01"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Fatalf("query = %d", resp.StatusCode)
	}

	resp, err = admin.Client().Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		`cp_http_requests_total{endpoint="/preferences",method="POST",code="200"} 1`,
		`cp_http_requests_total{endpoint="/resolve",method="GET",code="200"} 1`,
		`cp_http_requests_total{endpoint="/query",method="POST",code="200"} 1`,
		"# TYPE cp_http_request_seconds histogram",
		"# TYPE cp_resolve_cells histogram",
		"cp_resolve_cells_total ",
		`cp_resolve_total{outcome=`,
		"# TYPE cp_journal_fsync_seconds histogram",
		"cp_journal_fsync_seconds_count 2",
		"cp_journal_append_records_total 2",
		"cp_journal_size_bytes ",
		"cp_uptime_seconds ",
		"cp_go_goroutines ",
		"cp_go_heap_alloc_bytes ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics output:\n%s", metrics)
	}

	// /varz: the same registry as one JSON document.
	resp, err = admin.Client().Get(admin.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("varz = %d", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("varz not JSON: %v\n%s", err, body)
	}
	if _, ok := snap["cp_journal_fsync_seconds"]; !ok {
		t.Error("varz missing cp_journal_fsync_seconds")
	}

	// pprof is mounted on the admin mux.
	resp, err = admin.Client().Get(admin.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != 200 {
		t.Errorf("pprof cmdline = %d", resp.StatusCode)
	}
}

// TestServeWithAdminListener runs serve with a real admin listener,
// scrapes it while the server is live, and confirms it answers until
// the drain completes.
func TestServeWithAdminListener(t *testing.T) {
	c := cfg(30, 7, "jaccard", "", 16, "")
	a, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	adminBase := "http://" + adminLn.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(ctx, a, ln, adminLn, c) }()

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

	resp, err := http.Get(adminBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("admin /metrics = %d", resp.StatusCode)
	}
	if !strings.Contains(string(b), `cp_http_requests_total{endpoint="/healthz"`) {
		t.Errorf("admin scrape missing healthz requests:\n%s", b)
	}

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain")
	}
	// The admin listener is closed once serve returns.
	if _, err := http.Get(adminBase + "/metrics"); err == nil {
		t.Error("admin listener still accepting after shutdown")
	}
}
