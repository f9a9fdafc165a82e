package httpapi

// End-to-end degraded-mode serving: ENOSPC injected under the journal
// of a one-shard store flips the server read-only — mutations get
// structured 503 "degraded" with a Retry-After hint while reads and
// resolution keep serving — and the probe loop flips it back once the
// fault lifts.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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

	// Every way a POST or DELETE /preferences body can arrive: chunked
	// with no Content-Length, a declared length over the cap, a body
	// shorter than its declared length (the client closes its side
	// early), and an empty body. Status and body are pinned byte for
	// byte.
	const (
		park      = "[] => type = park : 0.4"
		tooLarge  = `{"code":"too_large","error":"http: request body too large"}` + "\n"
		shortBody = `{"code":"bad_request","error":"unexpected EOF"}` + "\n"
	)
	chunked := func(body string) string {
		return fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	}
	sized := func(declared int, body string) string {
		return fmt.Sprintf("Content-Length: %d\r\n\r\n%s", declared, body)
	}
	for _, c := range []struct {
		name, method, request string
		short                 bool // the body stops before its declared length
		status                int
		body                  string
	}{
		{"chunked POST", "POST", chunked(park), false, 200, `{"preferences":2}` + "\n"},
		{"chunked oversized POST", "POST", chunked(big), false, 413, tooLarge},
		{"declared oversized POST", "POST", sized(len(big), big), false, 413, tooLarge},
		{"short POST", "POST", sized(len(park)+10, park), true, 400, shortBody},
		{"short POST declared over the cap", "POST", sized(100, park), true, 400, shortBody},
		{"empty POST", "POST", sized(0, ""), false, 200, `{"preferences":2}` + "\n"},
		{"chunked DELETE", "DELETE", chunked(park), false, 200, `{"preferences":1,"removed":1}` + "\n"},
		{"chunked oversized DELETE", "DELETE", chunked(big), false, 413, tooLarge},
		{"declared oversized DELETE", "DELETE", sized(len(big), big), false, 413, tooLarge},
		{"short DELETE", "DELETE", sized(len(small)+10, small), true, 400, shortBody},
		{"short DELETE declared over the cap", "DELETE", sized(100, small), true, 400, shortBody},
		{"empty DELETE", "DELETE", sized(0, ""), false, 200, `{"preferences":1,"removed":0}` + "\n"},
	} {
		status, body := rawRequest(t, ts.Listener.Addr().String(), c.method+" /preferences HTTP/1.1\r\nHost: x\r\n"+c.request, c.short)
		if status != c.status || body != c.body {
			t.Errorf("%s = %d %q, want %d %q", c.name, status, body, c.status, c.body)
		}
	}
}

// rawRequest writes one request, exactly as given, on a fresh
// connection and returns the response's status and body. With
// closeWrite it then closes the connection's write side, so a body
// shorter than its declared length ends there. Only such a request
// closes it: once the server has read a whole request, it takes the
// client's end of input for a disconnect and cancels the request's
// context, and the handler may answer 499 "canceled".
func rawRequest(t *testing.T, addr, request string, closeWrite bool) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// stalledBody stands for a client that declared a length and then sent
// nothing: its first read fails as a read timeout would. It records the
// largest buffer a read was handed, which is the body buffer's free
// space.
type stalledBody struct{ largest int }

func (b *stalledBody) Read(p []byte) (int, error) {
	b.largest = max(b.largest, len(p))
	return 0, errors.New("i/o timeout")
}

func (b *stalledBody) Close() error { return nil }

// A declared Content-Length within the cap sizes the body buffer only
// up to bodyPresize: a client that declares 1 MiB and stalls does not
// pin 1 MiB.
func TestStalledBodyPresize(t *testing.T) {
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := defaultUserServer(t, env, rel, nil, "")
	for _, method := range []string{"POST", "DELETE"} {
		body := &stalledBody{}
		req := httptest.NewRequest(method, "/preferences", body)
		req.ContentLength = 1 << 20
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s stalled body = %d: %s", method, rec.Code, rec.Body)
		}
		// The buffer is rounded up to the allocator's size class.
		if body.largest == 0 || body.largest > 2*bodyPresize {
			t.Errorf("%s stalled body: first read handed %d bytes, want at most %d", method, body.largest, 2*bodyPresize)
		}
	}
}
