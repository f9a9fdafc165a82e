package httpapi

// Tracing middleware coverage: the root span per request, W3C
// traceparent propagation in both directions, probe exemption, and the
// end-to-end provenance test — a deterministically slowed journal
// fsync must show up as the guilty stage in the retained trace's span
// tree, with correct parentage and attributes, and the slow-request
// log must quote the trace ID and the slowest spans.

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contextpref"
	"contextpref/internal/dataset"
	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
	"contextpref/internal/tracing"
)

// tracedServer builds a server for user "default" with the given
// tracer.
func tracedServer(t *testing.T, tracer *tracing.Tracer) *httptest.Server {
	t.Helper()
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := defaultUserServer(t, env, rel, nil, "", WithTracer(tracer))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// traceIDOf extracts the 32-hex trace ID from a traceparent header.
func traceIDOf(t *testing.T, header string) string {
	t.Helper()
	parts := strings.Split(header, "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		t.Fatalf("malformed traceparent header %q", header)
	}
	return parts[1]
}

// TestTracingRootSpanPerRequest: with full sampling, every request is
// retained with a root span named after its endpoint and carrying the
// method, path, request ID, and status attributes; the response quotes
// the trace on a traceparent header.
func TestTracingRootSpanPerRequest(t *testing.T) {
	tracer := tracing.New(tracing.Config{SampleRate: 1})
	ts := tracedServer(t, tracer)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get("Traceparent")
	if tp == "" {
		t.Fatal("response has no traceparent header")
	}
	snap := tracer.Lookup(traceIDOf(t, tp))
	if snap == nil {
		t.Fatalf("trace %s not retained at sample rate 1", tp)
	}
	if snap.Status != tracing.StatusSampled {
		t.Errorf("trace status = %q, want %q", snap.Status, tracing.StatusSampled)
	}
	if snap.Root != "http /stats" {
		t.Errorf("root span = %q, want %q", snap.Root, "http /stats")
	}
	attrs := map[string]any{}
	for _, sd := range snap.Spans {
		if sd.Parent == 0 {
			for _, a := range sd.Attrs {
				attrs[a.Key] = a.Value()
			}
		}
	}
	for key, want := range map[string]any{
		"method": "GET", "path": "/stats", "status": int64(200),
	} {
		if attrs[key] != want {
			t.Errorf("root attr %s = %v, want %v", key, attrs[key], want)
		}
	}
}

// TestTracingInboundTraceparent: a sampled remote parent is adopted —
// the trace continues the caller's trace ID and is retained even at
// sample rate zero; an unsampled remote parent adopts the ID but is
// not retained.
func TestTracingInboundTraceparent(t *testing.T) {
	tracer := tracing.New(tracing.Config{SlowTrace: time.Hour})
	ts := tracedServer(t, tracer)

	const sampledID = "0af7651916cd43dd8448eb211c80319c"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	req.Header.Set("traceparent", "00-"+sampledID+"-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := traceIDOf(t, resp.Header.Get("Traceparent")); got != sampledID {
		t.Errorf("response trace ID = %s, want the inbound %s", got, sampledID)
	}
	if tracer.Lookup(sampledID) == nil {
		t.Error("sampled remote parent did not force retention")
	}

	const unsampledID = "1bf7651916cd43dd8448eb211c80319c"
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	req.Header.Set("traceparent", "00-"+unsampledID+"-b7ad6b7169203331-00")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := traceIDOf(t, resp.Header.Get("Traceparent")); got != unsampledID {
		t.Errorf("response trace ID = %s, want the inbound %s", got, unsampledID)
	}
	if tracer.Lookup(unsampledID) != nil {
		t.Error("unsampled healthy trace retained at sample rate 0")
	}
}

// TestTracingProbesAndNilTracer: probes are never traced, and a server
// without a tracer emits no traceparent header at all.
func TestTracingProbesAndNilTracer(t *testing.T) {
	tracer := tracing.New(tracing.Config{SampleRate: 1})
	ts := tracedServer(t, tracer)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tp := resp.Header.Get("Traceparent"); tp != "" {
		t.Errorf("probe response carries traceparent %q", tp)
	}
	for _, snap := range tracer.Snapshots() {
		if snap.Root == "http /healthz" {
			t.Error("probe request was traced")
		}
	}

	plain := tracedServer(t, nil)
	resp, err = http.Get(plain.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tp := resp.Header.Get("Traceparent"); tp != "" {
		t.Errorf("untraced server emitted traceparent %q", tp)
	}
}

// slowSyncFS delays every file Sync: the deterministic stand-in for a
// saturated disk, injected under the journal so the fsync span is the
// provably slowest stage of a mutation.
type slowSyncFS struct {
	faultfs.FS
	delay time.Duration
}

func (s slowSyncFS) OpenFile(name string, flag int) (faultfs.File, error) {
	f, err := s.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, delay: s.delay}, nil
}

type slowSyncFile struct {
	faultfs.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestSlowTraceProvenance is the end-to-end tail-retention test: a
// journaled multi-user server whose fsync is deterministically slowed
// serves a mutation; the request must come back with a trace the ring
// retained as slow, whose span tree names the journal fsync as the
// guilty stage — http root → system.add_preferences → journal.append →
// journal.fsync, with the delay on the fsync span — and the
// slow-request log must quote the trace ID and the slowest spans.
func TestSlowTraceProvenance(t *testing.T) {
	const delay = 25 * time.Millisecond
	env, err := dataset.RealEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dataset.POIs(env, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	fsys := slowSyncFS{FS: faultfs.NewMemFS(), delay: delay}
	j, recovered, err := journal.OpenFS(fsys, "/store")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	dir, err := contextpref.NewDirectory(env, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Replay(recovered); err != nil {
		t.Fatal(err)
	}
	dir.SetPersister(contextpref.NewJournalPersister(j))
	// Materialize the default user up front: lazy creation would
	// otherwise journal a second append+fsync inside the traced
	// request, and which of the two chains lands in the log's top-3
	// digest would come down to nanosecond timing.
	if _, err := dir.User("default"); err != nil {
		t.Fatal(err)
	}

	// Slow threshold well under the injected delay, zero sampling: the
	// trace can only be retained through the tail (slow) path.
	tracer := tracing.New(tracing.Config{SlowTrace: 5 * time.Millisecond})
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	srv, err := NewMultiUser(dir,
		WithTracer(tracer),
		WithLogger(logger),
		WithSlowRequestThreshold(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/preferences", "text/plain",
		strings.NewReader("[] => type = park : 0.4"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /preferences = %d", resp.StatusCode)
	}

	snap := tracer.Lookup(traceIDOf(t, resp.Header.Get("Traceparent")))
	if snap == nil {
		t.Fatal("slow mutation's trace was not retained")
	}
	if snap.Status != tracing.StatusSlow {
		t.Errorf("trace status = %q, want %q", snap.Status, tracing.StatusSlow)
	}
	if snap.Root != "http /preferences" {
		t.Errorf("root span = %q, want %q", snap.Root, "http /preferences")
	}

	// Walk the tree bottom-up from the fsync under the preference add
	// (user creation journals its own fsync; follow the add chain).
	byID := map[uint64]tracing.SpanData{}
	for _, sd := range snap.Spans {
		byID[sd.ID] = sd
	}
	var add tracing.SpanData
	for _, sd := range snap.Spans {
		if sd.Name == "system.add_preferences" {
			add = sd
		}
	}
	if add.ID == 0 {
		t.Fatalf("no system.add_preferences span in trace:\n%s", tracing.RenderTree(snap))
	}
	if parent := byID[add.Parent]; parent.Parent != 0 || parent.Name != "http /preferences" {
		t.Errorf("add_preferences hangs under %q, want the http root", parent.Name)
	}
	var appendSpan tracing.SpanData
	for _, sd := range snap.Spans {
		if sd.Name == "journal.append" && sd.Parent == add.ID {
			appendSpan = sd
		}
	}
	if appendSpan.ID == 0 {
		t.Fatalf("no journal.append under system.add_preferences:\n%s", tracing.RenderTree(snap))
	}
	var fsync tracing.SpanData
	for _, sd := range snap.Spans {
		if sd.Name == "journal.fsync" && sd.Parent == appendSpan.ID {
			fsync = sd
		}
	}
	if fsync.ID == 0 {
		t.Fatalf("no journal.fsync under journal.append:\n%s", tracing.RenderTree(snap))
	}

	// The guilty stage: the injected delay sits on the fsync span, and
	// the fsync dominates its parent append (everything else the append
	// does is in-memory).
	if fsync.Duration < delay {
		t.Errorf("fsync span lasted %s, want >= the injected %s", fsync.Duration, delay)
	}
	if overhead := appendSpan.Duration - fsync.Duration; overhead > delay/2 {
		t.Errorf("append span spends %s outside fsync; the fsync should dominate", overhead)
	}
	records := int64(-1)
	for _, a := range appendSpan.Attrs {
		if a.Key == "records" {
			records = a.Int
		}
	}
	if records != 1 {
		t.Errorf("journal.append records attr = %d, want 1", records)
	}

	logged := logs.String()
	if !strings.Contains(logged, "slow request") {
		t.Fatalf("no slow-request log:\n%s", logged)
	}
	if !strings.Contains(logged, "trace_id="+snap.TraceID) {
		t.Errorf("slow-request log does not quote the trace ID:\n%s", logged)
	}
	if !strings.Contains(logged, "span1=") || !strings.Contains(logged, "journal.fsync") {
		t.Errorf("slow-request log does not name the slowest spans:\n%s", logged)
	}
}
