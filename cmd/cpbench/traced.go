package main

// The traced run measures where an op's time goes, layer by layer. It
// replays the workload's seeded op stream in-process, once per rung of
// a ladder: the full cpserver stack through its HTTP handler, then the
// directory, the per-user system, the query tree, the uncached Rank_CS
// engine and the profile tree, each on its own replica built from the
// same inputs. Spans come from this file only — around the calls into
// each layer and at the two public seams the library offers (a
// Persister and a distance.Metric) — so the program under test is not
// modified to be measured.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"contextpref"
	"contextpref/httpapi"
	"contextpref/internal/distance"
	"contextpref/internal/journal"
	"contextpref/internal/preference"
	"contextpref/internal/profiletree"
	"contextpref/internal/query"
	"contextpref/internal/querytree"
	"contextpref/internal/relation"
	"contextpref/internal/tracing"
)

// oracleChecks bounds how many read answers of the traced stream are
// compared with the oracle; the e2e run has its own oracle pass.
const oracleChecks = 1000

// span is one timed call, written as a JSON line when the run ends.
// Spans of one op share its id; setup work uses op -1.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the run's spans in memory.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(op int, name, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{Op: op, Name: name, Parent: parent,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
}

// durations returns the microsecond durations of the spans with the
// given name whose op passes keep (nil keeps all).
func (l *spanLog) durations(name string, keep func(op int) bool) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opIDKey carries the op id through the handler's request context, so
// the Persister seam can parent its span.
type opIDKey struct{}

func opID(ctx context.Context) int {
	if id, ok := ctx.Value(opIDKey{}).(int); ok {
		return id
	}
	return -1
}

// countingMetric is the distance.Metric seam: it counts calls and time
// spent in the metric. The traced run is single-goroutine, so plain
// fields suffice.
type countingMetric struct {
	inner contextpref.Metric
	calls int
	busy  time.Duration
}

func (m *countingMetric) StateDistance(e *contextpref.Environment, s1, s2 contextpref.State) (float64, error) {
	t := time.Now()
	d, err := m.inner.StateDistance(e, s1, s2)
	m.busy += time.Since(t)
	m.calls++
	return d, err
}

func (m *countingMetric) ValueDistance(e *contextpref.Environment, param int, v1, v2 string) (float64, error) {
	t := time.Now()
	d, err := m.inner.ValueDistance(e, param, v1, v2)
	m.busy += time.Since(t)
	m.calls++
	return d, err
}

func (m *countingMetric) Name() string { return m.inner.Name() }

// tracedPersister is the Persister seam: each journal write becomes a
// journal.persist span under the op that caused it.
type tracedPersister struct {
	inner contextpref.Persister
	log   *spanLog
	calls *int
}

func (p tracedPersister) traced(ctx context.Context, f func() error) error {
	t0 := time.Now()
	err := f()
	p.log.add(opID(ctx), "journal.persist", "httpapi", t0, time.Now())
	*p.calls++
	return err
}

func (p tracedPersister) PersistCreateUser(ctx context.Context, user string) error {
	return p.traced(ctx, func() error { return p.inner.PersistCreateUser(ctx, user) })
}

func (p tracedPersister) PersistAdd(ctx context.Context, user string, ps ...contextpref.Preference) error {
	return p.traced(ctx, func() error { return p.inner.PersistAdd(ctx, user, ps...) })
}

func (p tracedPersister) PersistRemove(ctx context.Context, user string, pr contextpref.Preference) error {
	return p.traced(ctx, func() error { return p.inner.PersistRemove(ctx, user, pr) })
}

func (p tracedPersister) PersistDropUser(ctx context.Context, user string) error {
	return p.traced(ctx, func() error { return p.inner.PersistDropUser(ctx, user) })
}

// traceRun is one traced replay of a workload.
type traceRun struct {
	in   *inputs
	dir  string // temporary directory for stores
	ops  []op   // the replayed stream, writes resolved
	log  *spanLog
	cq   contextpref.Query
	rec  *result
	fail error // first failed op, on any rung
}

// runTraced replays traceOps ops of the workload through every rung and
// reports the per-layer metrics. The spans go to
// spans-<workload>-<seed>.jsonl in work. A failed op fails the run.
func runTraced(work string, w workload, seed int64) (*result, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, w.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	planned, err := plan(in, streamSeed(seed, streamTrace), w.traceOps)
	if err != nil {
		return nil, err
	}
	t := make(toggles, w.users)
	ops := make([]op, len(planned))
	for i, o := range planned {
		ops[i] = t.resolve(o)
		t.commit(ops[i])
	}
	cq, err := contextpref.ParseQuery("top 10")
	if err != nil {
		return nil, err
	}
	// Room for every span up front (about ten per op), so recording
	// them allocates nothing while the heap is measured.
	log := &spanLog{t0: time.Now(), spans: make([]span, 0, 12*len(ops)+1024)}
	tr := &traceRun{in: in, dir: dir, ops: ops, log: log, cq: cq,
		rec: &result{workload: w.name, correct: true, attempted: len(ops)}}
	for _, step := range []func() error{
		tr.preferenceRung, tr.journalRung, tr.handlerRungs, tr.directoryRung,
		tr.systemRung, tr.querytreeRung, tr.queryRung, tr.profiletreeRung,
	} {
		if err := step(); err != nil {
			return nil, err
		}
		if tr.fail != nil {
			return nil, tr.fail
		}
	}
	tr.derived()
	spansPath := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := tr.log.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	tr.rec.info = append(tr.rec.info, fmt.Sprintf("%s spans %d written to %s", w.name, len(tr.log.spans), spansPath))
	return tr.rec, nil
}

func (tr *traceRun) isQuery(i int) bool { return i >= 0 && tr.ops[i].kind == opQuery }

func (tr *traceRun) opFailed(i int, err error) {
	if tr.fail == nil {
		tr.fail = fmt.Errorf("op %d (%v): %w", i, tr.ops[i].kind, err)
	}
}

// preferenceRung times upload parsing: preference.ParseProfile over
// the profile texts of up to 64 users.
func (tr *traceRun) preferenceRung() error {
	var ms []float64
	for u := 0; u < len(tr.in.texts) && u < 64; u++ {
		t0 := time.Now()
		if _, err := preference.ParseProfile(tr.in.env, tr.in.texts[u]); err != nil {
			return err
		}
		t1 := time.Now()
		tr.log.add(-1, "preference.parse_profile", "", t0, t1)
		ms = append(ms, float64(t1.Sub(t0))/1e6)
	}
	tr.rec.add("preference.parse_profile_ms", mean(ms), "ms", len(ms))
	return nil
}

// appendHistory journals the workload's mutations through one
// persister per shard: every user's creation and profile (as cpserver
// journals an upload, and as store-backed workloads are written before
// a run), then the given writes. observe, when set, gets each append's
// start and end.
func appendHistory(ps []contextpref.Persister, in *inputs, writes []op, observe func(start, end time.Time)) error {
	ctx := context.Background()
	timed := func(f func() error) error {
		t0 := time.Now()
		err := f()
		if observe != nil {
			observe(t0, time.Now())
		}
		return err
	}
	for u, name := range in.users {
		p := ps[contextpref.UserShard(name, in.w.shards)]
		if err := timed(func() error { return p.PersistCreateUser(ctx, name) }); err != nil {
			return err
		}
		if err := timed(func() error { return p.PersistAdd(ctx, name, in.profiles[u]...) }); err != nil {
			return err
		}
	}
	for _, o := range writes {
		name := in.users[o.user]
		p := ps[contextpref.UserShard(name, in.w.shards)]
		pref := in.churn[o.user][o.pref]
		err := timed(func() error {
			if o.kind == opAdd {
				return p.PersistAdd(ctx, name, pref)
			}
			return p.PersistRemove(ctx, name, pref)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// journalRung times the durability layer on a fresh store: the
// workload's whole mutation history appended (fsync on, the checkout's
// filesystem), then replayed the way cpserver recovers at start.
func (tr *traceRun) journalRung() error {
	var writes []op
	for _, o := range tr.ops {
		if o.kind.isWrite() {
			writes = append(writes, o)
		}
	}
	dir := filepath.Join(tr.dir, "journal-rung")
	m := contextpref.NewJournalMetrics(contextpref.NewTelemetryRegistry())
	var appendUS []float64
	err := withStore(dir, tr.in.w.shards, m, func(ps []contextpref.Persister) error {
		return appendHistory(ps, tr.in, writes, func(start, end time.Time) {
			tr.log.add(-1, "journal.append", "", start, end)
			appendUS = append(appendUS, float64(end.Sub(start))/1e3)
		})
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	js, recs, err := openStore(dir, tr.in.w.shards, nil)
	if err != nil {
		return err
	}
	d, err := contextpref.NewDirectory(tr.in.env, tr.in.rel, tr.directoryOptions(nil)...)
	if err == nil {
		for i, r := range recs {
			if err = d.ReplayShard(i, r); err != nil {
				break
			}
		}
	}
	replay := time.Since(t0)
	for _, j := range js {
		j.Close()
	}
	if err != nil {
		return err
	}
	tr.log.add(-1, "journal.replay", "", t0, t0.Add(replay))
	tr.rec.add("journal.append_us.p50", quantile(appendUS, 0.5), "us", len(appendUS))
	fsyncs := m.FsyncSeconds.Count()
	tr.rec.add("journal.fsync_ms.mean", m.FsyncSeconds.Sum()/float64(fsyncs)*1e3, "ms", int(fsyncs))
	tr.rec.add("journal.bytes_per_record", float64(m.AppendBytes.Value())/float64(m.AppendRecords.Value()), "bytes", int(m.AppendRecords.Value()))
	tr.rec.add("journal.replay_s", replay.Seconds(), "s", 1)
	return nil
}

// directoryOptions are the directory options cpserver's build() passes
// for this workload, plus extra per-user System options.
func (tr *traceRun) directoryOptions(reg *contextpref.TelemetryRegistry, extra ...contextpref.Option) []contextpref.DirectoryOption {
	w := tr.in.w
	opts := append([]contextpref.Option{contextpref.WithQueryCache(w.cache)}, extra...)
	dopts := []contextpref.DirectoryOption{
		contextpref.WithSystemOptions(opts...),
		contextpref.WithShards(w.shards),
	}
	if reg != nil {
		dopts = append(dopts, contextpref.WithDirectoryTelemetry(reg))
	}
	if w.maxResident > 0 {
		dopts = append(dopts, contextpref.WithMaxResidentUsers(w.maxResident))
	}
	return dopts
}

// stack is the serving stack cpserver's build() assembles for a
// multi-user workload.
type stack struct {
	api      *httpapi.Server
	journals []*journal.Journal
}

func (s *stack) close() {
	for _, j := range s.journals {
		j.Close()
	}
}

// buildStack assembles the workload's cpserver stack in-process, with
// the given metric and a hook to wrap each shard's persister, and loads
// the workload's data the way the live server gets it.
func (tr *traceRun) buildStack(name string, metric contextpref.Metric, wrap func(contextpref.Persister) contextpref.Persister) (*stack, error) {
	w := tr.in.w
	if w.store && w.shards < 2 {
		return nil, fmt.Errorf("traced run: unsharded store-backed workloads are not modelled")
	}
	reg := contextpref.NewTelemetryRegistry()
	tracer := tracing.New(tracing.Config{
		SlowTrace: 500 * time.Millisecond, // cpserver's -slow-request default
		Metrics:   contextpref.NewTraceMetrics(reg),
	})
	dir, err := contextpref.NewDirectory(tr.in.env, tr.in.rel,
		tr.directoryOptions(reg, contextpref.WithMetric(metric), contextpref.WithTelemetry(reg))...)
	if err != nil {
		return nil, err
	}
	// cpserver's flag defaults: -max-inflight 256, -max-body 1 MiB,
	// -request-timeout 5s, -slow-request 500ms.
	sopts := []httpapi.ServerOption{
		httpapi.WithTelemetry(reg),
		httpapi.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		httpapi.WithSlowRequestThreshold(500 * time.Millisecond),
		httpapi.WithTracer(tracer),
		httpapi.WithMaxInflight(256),
		httpapi.WithMaxBodyBytes(1 << 20),
		httpapi.WithRequestTimeout(5 * time.Second),
	}
	st := &stack{}
	if w.store {
		storeDir := filepath.Join(tr.dir, name)
		if err := writeStore(storeDir, tr.in); err != nil {
			return nil, err
		}
		js, recs, err := openStore(storeDir, w.shards, contextpref.NewJournalMetrics(reg))
		if err != nil {
			return nil, err
		}
		st.journals = js
		healths := make([]*contextpref.Health, w.shards)
		for i, j := range js {
			if err := dir.ReplayShard(i, recs[i]); err != nil {
				st.close()
				return nil, err
			}
			healths[i] = contextpref.NewShardHealth(i)
			dir.SetShardHealth(i, healths[i])
			dir.SetShardPersister(i, wrap(contextpref.NewJournalPersister(j)))
		}
		contextpref.RegisterShardHealthTelemetry(healths, reg)
		sopts = append(sopts, httpapi.WithShardHealth(healths))
	}
	st.api, err = httpapi.NewMultiUser(dir, sopts...)
	if err != nil {
		st.close()
		return nil, err
	}
	if !w.store {
		for u, name := range tr.in.users {
			rec := httptest.NewRecorder()
			st.api.ServeHTTP(rec, httptest.NewRequest("POST", "/preferences?user="+name, bytes.NewReader([]byte(tr.in.texts[u]))))
			if rec.Code != 200 {
				st.close()
				return nil, fmt.Errorf("uploading %s: status %d: %s", name, rec.Code, rec.Body.String())
			}
		}
	}
	return st, nil
}

// serve sends op i through a stack's handler, recording its root span
// under name.
func (tr *traceRun) serve(st *stack, name string, i int) *httptest.ResponseRecorder {
	method, target, body := tr.in.request(tr.ops[i])
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req = req.WithContext(context.WithValue(req.Context(), opIDKey{}, i))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	st.api.ServeHTTP(rec, req)
	tr.log.add(i, name, "", t0, time.Now())
	if rec.Code != 200 {
		tr.opFailed(i, fmt.Errorf("%s: status %d: %s", name, rec.Code, bytes.TrimSpace(rec.Body.Bytes())))
	}
	return rec
}

// handlerRungs serve the stream through two full stacks, op by op: a
// bare one (the library's own metric and persister), whose answers are
// checked against the oracle, and an instrumented one with the two
// seams wrapped. Their difference is the tracing overhead; alternating
// which stack goes first spreads drift in the host's state over both.
func (tr *traceRun) handlerRungs() error {
	or, err := newOracle(tr.in, make(toggles, tr.in.w.users))
	if err != nil {
		return err
	}
	for u := range tr.in.users {
		if _, _, err := or.store(u); err != nil {
			return err
		}
	}
	// The heap both stacks hold is measured around their build and
	// replay; the oracle is built and the span log allocated beforehand.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	bare, err := tr.buildStack("bare", distance.Jaccard{}, func(p contextpref.Persister) contextpref.Persister { return p })
	if err != nil {
		return err
	}
	defer bare.close()
	metric := &countingMetric{inner: distance.Jaccard{}}
	persists := 0
	traced, err := tr.buildStack("traced", metric, func(p contextpref.Persister) contextpref.Persister {
		return tracedPersister{inner: p, log: tr.log, calls: &persists}
	})
	if err != nil {
		return err
	}
	defer traced.close()
	// The seams count only the replayed stream, not the set-up.
	metric.calls, metric.busy, persists = 0, 0, 0

	respBytes, checked, writes := 0, 0, 0
	for i, o := range tr.ops {
		var answer *httptest.ResponseRecorder
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				answer = tr.serve(bare, "httpapi.bare", i)
			} else {
				respBytes += tr.serve(traced, "httpapi", i).Body.Len()
			}
		}
		if o.kind.isWrite() {
			writes++
		}
		if answer.Code != 200 || checked >= oracleChecks {
			continue
		}
		if o.kind.isWrite() {
			or.toggles.commit(o)
			if err := or.apply(o); err != nil {
				return err
			}
			continue
		}
		checked++
		if err := or.check(o, answer.Body.Bytes()); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(bare)
	runtime.KeepAlive(traced)

	n := len(tr.ops)
	all := tr.log.durations("httpapi", nil)
	queries := tr.log.durations("httpapi", tr.isQuery)
	tr.rec.add("httpapi.op_us.p50", quantile(all, 0.5), "us", len(all))
	tr.rec.add("httpapi.query_us.p50", quantile(queries, 0.5), "us", len(queries))
	tr.rec.add("httpapi.query_us.p99", quantile(queries, 0.99), "us", len(queries))
	tr.rec.add("httpapi.resp_bytes.mean", float64(respBytes)/float64(n), "bytes", n)
	tr.rec.add("distance.calls_per_op", float64(metric.calls)/float64(n), "count", metric.calls)
	tr.rec.add("distance.us_per_op", float64(metric.busy)/1e3/float64(n), "us", metric.calls)
	tr.rec.add("journal.appends_per_op", float64(persists)/float64(n), "count", persists)
	tr.rec.add("server.heap_mb", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/2/(1<<20), "MB", 2)
	bareP50 := quantile(tr.log.durations("httpapi.bare", nil), 0.5)
	tr.rec.add("trace.overhead_pct", (quantile(all, 0.5)-bareP50)/bareP50*100, "%", n)
	tr.rec.add("loadgen.write_share", float64(writes)/float64(n), "ratio", n)
	return nil
}

// profileRecords is the workload's data as journal records, for
// replaying into a replica without a journal.
func (tr *traceRun) profileRecords() []journal.Record {
	var recs []journal.Record
	for u, name := range tr.in.users {
		recs = append(recs, journal.Record{Op: journal.OpUser, User: name})
		for _, p := range tr.in.profiles[u] {
			recs = append(recs, journal.Record{Op: journal.OpAdd, User: name, Line: contextpref.FormatPreference(p)})
		}
	}
	return recs
}

// directoryRung replays the stream through Directory.UserCtx and the
// SafeSystem methods the handlers call, on an unjournaled replica
// loaded the way the server is.
func (tr *traceRun) directoryRung() error {
	reg := contextpref.NewTelemetryRegistry()
	d, err := contextpref.NewDirectory(tr.in.env, tr.in.rel, tr.directoryOptions(reg)...)
	if err != nil {
		return err
	}
	if tr.in.w.store {
		err = d.Replay(tr.profileRecords())
	} else {
		for u, name := range tr.in.users {
			var sys *contextpref.SafeSystem
			if sys, err = d.User(name); err == nil {
				err = sys.LoadProfile(tr.in.texts[u])
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	// Counters are read as deltas, so only the replayed stream counts.
	loads0, evictions0 := shardCounter(reg, "cp_shard_loads_total"), shardCounter(reg, "cp_shard_evictions_total")
	ctx := context.Background()
	for i, o := range tr.ops {
		t0 := time.Now()
		sys, err := d.UserCtx(ctx, tr.in.users[o.user])
		t1 := time.Now()
		if err == nil {
			err = tr.safeCall(ctx, sys, o)
		}
		t2 := time.Now()
		if err != nil {
			tr.opFailed(i, err)
			continue
		}
		tr.log.add(i, "directory.user", "directory", t0, t1)
		tr.log.add(i, "directory", "httpapi", t0, t2)
	}
	n := float64(len(tr.ops))
	ops := tr.log.durations("directory", nil)
	users := tr.log.durations("directory.user", nil)
	loads := shardCounter(reg, "cp_shard_loads_total") - loads0
	evictions := shardCounter(reg, "cp_shard_evictions_total") - evictions0
	tr.rec.add("directory.op_us.p50", quantile(ops, 0.5), "us", len(ops))
	tr.rec.add("directory.op_us.p99", quantile(ops, 0.99), "us", len(ops))
	tr.rec.add("directory.user_us.p50", quantile(users, 0.5), "us", len(users))
	tr.rec.add("directory.loads_per_op", float64(loads)/n, "count", int(loads))
	tr.rec.add("directory.evictions_per_op", float64(evictions)/n, "count", int(evictions))
	return nil
}

// shardCounter sums a per-shard counter vector from a registry snapshot.
func shardCounter(reg *contextpref.TelemetryRegistry, name string) uint64 {
	total := uint64(0)
	if m, ok := reg.Snapshot()[name].(map[string]uint64); ok {
		for _, v := range m {
			total += v
		}
	}
	return total
}

// safeCall performs an op on a SafeSystem the way the handler does,
// minus HTTP and JSON.
func (tr *traceRun) safeCall(ctx context.Context, sys *contextpref.SafeSystem, o op) error {
	var err error
	switch o.kind {
	case opQuery:
		_, err = sys.QueryCtx(ctx, tr.cq, tr.in.states[o.state])
	case opResolve:
		_, err = sys.ResolveAllCtx(ctx, tr.in.states[o.state])
	case opAdd:
		err = sys.AddPreferencesCtx(ctx, tr.in.churn[o.user][o.pref])
	case opRemove:
		_, err = sys.RemovePreferenceCtx(ctx, tr.in.churn[o.user][o.pref])
	}
	return err
}

// systemRung replays the stream on per-user Systems (no locks, no
// directory, no parking). It also measures the query cache's hit ratio
// and how many cached results each write drops.
func (tr *traceRun) systemRung() error {
	systems := make([]*contextpref.System, tr.in.w.users)
	hits, queries, dropped, writes := 0, 0, 0, 0
	for i, o := range tr.ops {
		sys := systems[o.user]
		if sys == nil {
			var err error
			sys, err = contextpref.NewSystem(tr.in.env, tr.in.rel, contextpref.WithQueryCache(tr.in.w.cache))
			if err == nil {
				err = sys.AddPreferences(tr.in.profiles[o.user]...)
			}
			if err != nil {
				return err
			}
			systems[o.user] = sys
		}
		if o.kind.isWrite() {
			dropped += sys.CacheStats().Entries
			writes++
		}
		var err error
		t0 := time.Now()
		switch o.kind {
		case opQuery:
			var cached bool
			_, cached, err = sys.QueryCached(tr.cq, tr.in.states[o.state])
			queries++
			if cached {
				hits++
			}
		case opResolve:
			_, err = sys.ResolveAll(tr.in.states[o.state])
		case opAdd:
			err = sys.AddPreferences(tr.in.churn[o.user][o.pref])
		case opRemove:
			_, err = sys.RemovePreference(tr.in.churn[o.user][o.pref])
		}
		t1 := time.Now()
		if err != nil {
			tr.opFailed(i, err)
			continue
		}
		tr.log.add(i, "system", "directory", t0, t1)
	}
	all := tr.log.durations("system", nil)
	qs := tr.log.durations("system", tr.isQuery)
	tr.rec.add("system.op_us.p50", quantile(all, 0.5), "us", len(all))
	tr.rec.add("system.query_us.p50", quantile(qs, 0.5), "us", len(qs))
	tr.rec.add("system.query_us.p99", quantile(qs, 0.99), "us", len(qs))
	tr.rec.add("querytree.hit_ratio", ratio(hits, queries), "ratio", queries)
	tr.rec.add("querytree.dropped_per_write", ratio(dropped, writes), "count", writes)
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// engines holds one user's replica of the engine layers below System.
type engines struct {
	tree   *profiletree.Tree
	plain  *query.Engine
	cache  *querytree.Cache
	cached *querytree.Engine
}

// replicas builds the per-user engine replicas lazily.
func (tr *traceRun) replicas() func(u int) (*engines, error) {
	all := make([]*engines, tr.in.w.users)
	return func(u int) (*engines, error) {
		if all[u] != nil {
			return all[u], nil
		}
		tree, err := profiletree.New(tr.in.env, nil)
		if err != nil {
			return nil, err
		}
		if err := tree.CheckInsert(tr.in.profiles[u]...); err != nil {
			return nil, err
		}
		if err := tree.InsertAll(tr.in.profiles[u]...); err != nil {
			return nil, err
		}
		e := &engines{tree: tree}
		if e.plain, err = query.NewEngine(tree, tr.in.rel, distance.Jaccard{}, relation.CombineMax); err != nil {
			return nil, err
		}
		if e.cache, err = querytree.New(tr.in.env, nil, tr.in.w.cache); err != nil {
			return nil, err
		}
		if e.cached, err = querytree.NewEngine(e.plain, e.cache); err != nil {
			return nil, err
		}
		all[u] = e
		return e, nil
	}
}

// mutate applies a write to a replica's tree and drops its cache, as
// System does.
func (tr *traceRun) mutate(e *engines, o op) error {
	p := tr.in.churn[o.user][o.pref]
	var err error
	if o.kind == opAdd {
		if err = e.tree.CheckInsert(p); err == nil {
			err = e.tree.InsertAll(p)
		}
	} else {
		_, err = e.tree.Delete(p)
	}
	e.cache.Invalidate()
	return err
}

// querytreeRung replays the queries through the cached engine and times
// the cache lookup on its own.
func (tr *traceRun) querytreeRung() error {
	replica := tr.replicas()
	ctx := context.Background()
	for i, o := range tr.ops {
		e, err := replica(o.user)
		if err != nil {
			return err
		}
		switch o.kind {
		case opQuery:
			st := tr.in.states[o.state]
			t0 := time.Now()
			_, _, _, err = e.cache.Get(st)
			t1 := time.Now()
			if err == nil {
				_, _, err = e.cached.ExecuteCtx(ctx, tr.cq, st)
			}
			t2 := time.Now()
			if err != nil {
				tr.opFailed(i, err)
				continue
			}
			tr.log.add(i, "querytree.get", "querytree", t0, t1)
			tr.log.add(i, "querytree", "system", t1, t2)
		case opAdd, opRemove:
			if err := tr.mutate(e, o); err != nil {
				tr.opFailed(i, err)
			}
		}
	}
	gets := tr.log.durations("querytree.get", nil)
	tr.rec.add("querytree.get_us.p50", quantile(gets, 0.5), "us", len(gets))
	return nil
}

// queryRung replays the queries through the uncached Rank_CS engine.
func (tr *traceRun) queryRung() error {
	replica := tr.replicas()
	ctx := context.Background()
	var tuples []float64
	for i, o := range tr.ops {
		e, err := replica(o.user)
		if err != nil {
			return err
		}
		switch o.kind {
		case opQuery:
			t0 := time.Now()
			res, err := e.plain.ExecuteCtx(ctx, tr.cq, tr.in.states[o.state])
			t1 := time.Now()
			if err != nil {
				tr.opFailed(i, err)
				continue
			}
			tr.log.add(i, "query", "querytree", t0, t1)
			tuples = append(tuples, float64(len(res.Tuples)))
		case opAdd, opRemove:
			if err := tr.mutate(e, o); err != nil {
				tr.opFailed(i, err)
			}
		}
	}
	exec := tr.log.durations("query", nil)
	tr.rec.add("query.execute_us.p50", quantile(exec, 0.5), "us", len(exec))
	tr.rec.add("query.execute_us.p99", quantile(exec, 0.99), "us", len(exec))
	tr.rec.add("query.result_tuples.mean", mean(tuples), "count", len(tuples))
	return nil
}

// profiletreeRung resolves every read op's state on the profile tree:
// Resolve (exact lookup, then Search_CS) as Rank_CS does, and
// ResolveAll as /resolve does. It counts the paper's cost measures —
// cells accessed and covering candidates — and heap allocations.
func (tr *traceRun) profiletreeRung() error {
	replica := tr.replicas()
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	cells, cands, allocs, resolves := 0, 0, uint64(0), 0
	for i, o := range tr.ops {
		e, err := replica(o.user)
		if err != nil {
			return err
		}
		if o.kind.isWrite() {
			if err := tr.mutate(e, o); err != nil {
				tr.opFailed(i, err)
			}
			continue
		}
		st := tr.in.states[o.state]
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		_, accesses, _, err := e.tree.ResolveCtx(ctx, st, distance.Jaccard{})
		t1 := time.Now()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			tr.opFailed(i, err)
			continue
		}
		t2 := time.Now()
		all, _, err := e.tree.ResolveAllCtx(ctx, st, distance.Jaccard{})
		t3 := time.Now()
		if err != nil {
			tr.opFailed(i, err)
			continue
		}
		tr.log.add(i, "profiletree.resolve", "query", t0, t1)
		tr.log.add(i, "profiletree.resolve_all", "system", t2, t3)
		cells += accesses
		cands += len(all)
		allocs += ms1.Mallocs - ms0.Mallocs
		resolves++
	}
	res := tr.log.durations("profiletree.resolve", nil)
	resAll := tr.log.durations("profiletree.resolve_all", nil)
	tr.rec.add("profiletree.resolve_us.p50", quantile(res, 0.5), "us", len(res))
	tr.rec.add("profiletree.resolve_us.p99", quantile(res, 0.99), "us", len(res))
	tr.rec.add("profiletree.resolve_all_us.p50", quantile(resAll, 0.5), "us", len(resAll))
	tr.rec.add("profiletree.cells_per_resolve", ratio(cells, resolves), "count", resolves)
	tr.rec.add("profiletree.candidates_per_resolve", ratio(cands, resolves), "count", resolves)
	tr.rec.add("profiletree.allocs_per_resolve", float64(allocs)/float64(max(resolves, 1)), "count", resolves)
	return nil
}

// derived adds the self times: a rung's median minus the median of the
// rung beneath it, which it always calls.
func (tr *traceRun) derived() {
	m := tr.rec.metrics
	tr.rec.add("httpapi.self_us.p50", m["httpapi.op_us.p50"].Value-m["directory.op_us.p50"].Value, "us", m["httpapi.op_us.p50"].N)
	tr.rec.add("directory.self_us.p50", m["directory.op_us.p50"].Value-m["system.op_us.p50"].Value, "us", m["directory.op_us.p50"].N)
}
