package httpapi

// End-to-end degraded-mode serving: ENOSPC injected under the journal
// of a one-shard store flips the server read-only — mutations get
// structured 503 "degraded" with a Retry-After hint while reads and
// resolution keep serving — and the probe loop flips it back once the
// fault lifts.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contextpref"
	"contextpref/internal/dataset"
	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
)

type errBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	Shard *int   `json:"shard"`
}

func decodeErr(t *testing.T, body string) errBody {
	t.Helper()
	var e errBody
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return e
}

func del(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
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

func TestDegradedModeServing(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInject(faultfs.NewMemFS())
	j, recs, err := journal.OpenFS(inj, "/store", journal.WithRetry(1, time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	dir, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.ReplayShard(0, recs); err != nil {
		t.Fatal(err)
	}
	health := contextpref.NewShardHealth(0)
	dir.SetShardHealth(0, health)
	dir.SetShardPersister(0, contextpref.NewJournalPersister(j))
	srv, err := NewMultiUser(dir, WithShardHealth([]*contextpref.Health{health}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Healthy: mutations and reads work.
	resp, body := post(t, ts.URL+"/preferences", "text/plain", "[] => type = museum : 0.8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy POST = %d: %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy readyz = %d", resp.StatusCode)
	}

	// The disk fills up: every journal write fails with ENOSPC.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpWrite, Path: "journal", Err: faultfs.ErrNoSpace})

	resp, body = post(t, ts.URL+"/preferences", "text/plain", "[] => type = park : 0.4")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST on full disk = %d: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "degraded" || e.Shard == nil || *e.Shard != 0 {
		t.Errorf("POST on full disk = code %q shard %v, want %q naming shard 0 (%s)", e.Code, e.Shard, "degraded", e.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded mutation response missing Retry-After")
	}
	// Every mutation endpoint is read-only now.
	resp, body = del(t, ts.URL+"/preferences", "[] => type = museum : 0.8")
	if e := decodeErr(t, body); resp.StatusCode != http.StatusServiceUnavailable || e.Code != "degraded" {
		t.Errorf("DELETE while degraded = %d %q, want 503 degraded", resp.StatusCode, e.Code)
	}
	// Reads and resolution keep serving from memory.
	if resp, body := get(t, ts.URL+"/preferences"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "museum") {
		t.Errorf("GET /preferences while degraded = %d: %s", resp.StatusCode, body)
	}
	if resp, body := get(t, ts.URL+"/resolve?state=friends,t03,ath_r01"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /resolve while degraded = %d: %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/stats"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /stats while degraded = %d", resp.StatusCode)
	}
	// Readiness reflects the read-only state.
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Errorf("readyz while degraded = %d: %s", resp.StatusCode, body)
	}

	// The probe loop re-tests the store and flips back once space frees.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go health.Run(ctx, time.Millisecond, j.Probe)
	inj.Lift()
	deadline := time.Now().Add(5 * time.Second)
	for health.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never returned to healthy after the fault lifted")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after recovery = %d", resp.StatusCode)
	}
	resp, body = post(t, ts.URL+"/preferences", "text/plain", "[] => type = park : 0.4")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST after recovery = %d: %s", resp.StatusCode, body)
	}

	// Everything acknowledged (and nothing else) survives a restart:
	// the default user's creation and the two acknowledged adds.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs2, err := journal.OpenFS(inj, "/store")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 || recs2[0].Op != journal.OpUser || recs2[1].Op != journal.OpAdd || recs2[2].Op != journal.OpAdd {
		t.Errorf("restart replayed %+v, want the user creation and the 2 acknowledged adds", recs2)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := defaultUserServer(t, env, rel, nil, "", WithMaxBodyBytes(64))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	small := "[] => type = museum : 0.8"
	if resp, body := post(t, ts.URL+"/preferences", "text/plain", small); resp.StatusCode != http.StatusOK {
		t.Fatalf("small POST = %d: %s", resp.StatusCode, body)
	}
	big := strings.Repeat("# padding line\n", 32)
	resp, body := post(t, ts.URL+"/preferences", "text/plain", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != "too_large" {
		t.Errorf("oversized POST code = %q, want %q", e.Code, "too_large")
	}
	resp, body = post(t, ts.URL+"/query", "application/json", `{"query":"`+strings.Repeat("x", 100)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized query = %d: %s", resp.StatusCode, body)
	}
}
