// Package httpapi serves a contextpref.Directory of per-user profiles
// over HTTP with a small JSON API, so the context-aware preference
// database can run as a service. Every endpoint except /env, /users
// and the probes acts for the user named by the ?user query parameter,
// "default" when it is absent or empty; an unknown user is created on
// first access. All handlers are safe for concurrent use: each user is
// a contextpref.SafeSystem.
//
// Endpoints:
//
//	GET  /env                  the context environment (parameters, levels, domains)
//	GET  /users                the known user names, sorted
//	GET  /stats                profile-tree storage statistics
//	GET  /preferences          the stored profile in the line encoding (text/plain)
//	POST /preferences          add preferences (text/plain body, one per line)
//	DELETE /preferences        remove preferences (same body format; every
//	                           line is validated before anything changes)
//	POST /query                run a contextual query (JSON body, see QueryRequest)
//	GET  /resolve?state=v1,v2  context resolution for a state (all candidates)
//	GET  /healthz              liveness: always {"status":"ok"} while the process serves
//	GET  /readyz               readiness: 200 {"status":"ready"} (leader) or
//	                           {"status":"following"} (fresh follower), or 503
//	                           {"status":"draining"} once shutdown has begun /
//	                           {"status":"degraded"} while every shard is
//	                           read-only / {"status":"stale"} while every
//	                           shard's replica stream lags past its bound /
//	                           {"status":"promoting"} during a takeover; with a
//	                           store the body also reports each shard's state
//	                           (see WithShardHealth)
//
// Errors return JSON {"error": "...", "code": "..."} where code is one
// of "bad_request" (400), "conflict" (409, a Def. 6 preference
// conflict, detected via errors.As on *contextpref.ConflictError),
// "too_large" (413, the request body exceeded the configured cap, see
// WithMaxBodyBytes), "rate_limited" (429 + Retry-After, the caller's
// user/key is over its token-bucket budget, see WithRateLimit),
// "overloaded" (503, the concurrency limiter shed the request),
// "shed" (503 + Retry-After, admission control predicted the queue
// wait would exceed the request's remaining deadline and rejected it
// on arrival), "deadline" (503 + Retry-After, the server-enforced
// request deadline expired, see WithRequestTimeout), "canceled" (499,
// the client disconnected before the response), "degraded" (503 +
// Retry-After, the user's shard is in read-only degraded mode after a
// persistence failure — reads and resolution keep serving; the body
// names the shard, see WithShardHealth), "unavailable" (503, persisting
// the mutation to the journal failed — the in-memory state was not
// modified), "read_only" (503 + Retry-After, the node is a replication
// follower or is mid-promotion — mutate on the leader instead), "stale"
// (503 + Retry-After, the replica stream of the user's shard lags past
// its configured staleness bound, see WithShardReplica), "chaos" (500,
// a WithChaos-injected failure), and "internal" (500).
//
// Replication. On a follower (see WithShardReplica and cmd/cpserver's
// -follow flag) the same routes are mounted, but every mutation is
// rejected with 503 "read_only" — the underlying store's role gate
// surfaces *contextpref.ReadOnlyError — and the data-serving reads
// (/preferences, /resolve, /query, /stats, /users) are answered only
// while the staleness of the shards they read is within the configured
// bound; beyond it they fail with 503 "stale" + Retry-After so a load
// balancer retries against a fresher replica or the leader. /readyz
// answers {"status":"following"} (200) from a fresh follower,
// {"status":"stale"} (503) when every shard lags, and
// {"status":"promoting"} (503) while a takeover is in flight.
//
// Hardening. Every request passes through a middleware chain: a
// request-ID middleware (honoring an incoming X-Request-ID header,
// minting one otherwise, and echoing it on the response), a
// panic-recovery middleware that converts handler panics into 500
// responses instead of tearing down the connection, and — when
// WithMaxInflight is set — a semaphore-based concurrency limiter that
// sheds excess load with 503 + Retry-After rather than collapsing under
// it. /healthz and /readyz bypass the limiter so probes see the truth
// even when the server is saturated. SetDraining flips /readyz to 503
// so load balancers stop routing new traffic during graceful shutdown.
//
// Deadlines & admission control. WithRequestTimeout puts a deadline on
// every non-probe request's context; the evaluation loops underneath
// (profile-tree resolution, relation scans, multi-state Rank_CS) check
// it cooperatively, so a timed-out or disconnected client stops the
// work early instead of running it to completion. WithRateLimit
// enforces a per-user token bucket before any work happens,
// and admission to the inflight semaphore is deadline-aware: requests
// whose predicted queue wait exceeds their remaining deadline are shed
// on arrival. WithChaos injects seeded, deterministic latency and
// error faults after admission — the testing hook the overload tests
// use to prove the limits hold.
//
// Observability. With WithTelemetry the chain reports per-endpoint
// request counts, latency histograms, in-flight gauge, shed and panic
// counters into a telemetry registry (see internal/telemetry); without
// it every hook is a nil-safe no-op. All serving logs go through a
// structured slog logger (WithLogger) and carry the request ID, so a
// panic stack or a slow-request warning (WithSlowRequestThreshold) is
// correlatable with the response a client saw.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contextpref"
	"contextpref/internal/tracing"
)

// Server handles the API over a directory of per-user systems selected
// by the ?user query parameter.
type Server struct {
	directory   *contextpref.Directory
	environment *contextpref.Environment
	mux         *http.ServeMux

	// values[i] is the JSON array of the i-th tuple's column values in
	// the relation every query ranks, rendered when the server was
	// built: relations are append-only and tuples immutable.
	values [][]byte

	sem      chan struct{} // nil = unlimited
	draining atomic.Bool
	nextID   atomic.Uint64
	// shardHealth, when non-empty, holds the per-shard trackers of the
	// store (WithShardHealth): /readyz reports each shard's state, and
	// the store is only "degraded" when every shard is.
	shardHealth []*contextpref.Health
	maxBody     int64 // request-body cap in bytes

	// reqTimeout, when positive, is the server-enforced per-request
	// deadline (WithRequestTimeout).
	reqTimeout time.Duration
	// limiter, when non-nil, enforces per-user rate limits
	// (WithRateLimit).
	limiter *rateLimiter
	// chaos, when non-nil, injects faults before the handler
	// (WithChaos).
	chaos *chaos
	// queued counts requests waiting for an inflight slot; ewmaBits is
	// the float64 bits of the EWMA service time in seconds. Both feed
	// the deadline-aware queue-wait estimate in admit.
	queued   atomic.Int64
	ewmaBits atomic.Uint64

	// shardStaleness, when non-nil, marks this server a replication
	// follower: it reports one shard's segment-stream lag, so reads
	// beyond maxStaleness are gated per shard with 503 "stale" and
	// /readyz marks individual shards stale (WithShardReplica).
	shardStaleness func(shard int) time.Duration
	maxStaleness   time.Duration

	logger        *slog.Logger // never nil after init
	slowThreshold time.Duration
	metrics       *httpMetrics    // nil = telemetry disabled
	tracer        *tracing.Tracer // nil = tracing disabled
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxInflight bounds the number of concurrently served requests;
// excess requests are shed with 503 ("overloaded") instead of queueing
// without bound. n <= 0 means unlimited.
func WithMaxInflight(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// WithShardHealth attaches the store's per-shard health trackers (as
// returned by Directory.ShardHealths): /readyz reports every shard's
// state individually, answers 200 {"status":"degraded_partial"} while
// only some shards are degraded (the store still serves reads
// everywhere and mutations on the healthy shards), and 503
// {"status":"degraded"} only when every shard is read-only. Mutation
// rejections from a degraded shard carry the shard index in the 503
// body. Without it /readyz answers {"status":"ready"} until draining.
func WithShardHealth(hs []*contextpref.Health) ServerOption {
	return func(s *Server) { s.shardHealth = append([]*contextpref.Health(nil), hs...) }
}

// WithShardReplica marks the server as a replication follower:
// staleness reports one shard's segment-stream lag (e.g.
// replication.Follower's SegmentStaleness method) and max is the
// serving bound. Staleness is per shard because the segment streams
// are independent fault domains — a stalled stream must not take reads
// on healthy shards with it. A user-scoped read is gated on its own
// user's shard alone; the global /users enumeration spans every shard,
// so it is gated on the worst shard's lag (a stale shard could hide
// recently created users). /readyz reports every shard's lag and marks
// the stale ones individually. Mutations are rejected by the store's
// role gate with 503 "read_only" regardless of lag. max <= 0 disables
// the gating (reads always serve) but keeps the /readyz reporting.
// Combine with WithShardHealth for per-shard degraded states.
func WithShardReplica(staleness func(shard int) time.Duration, max time.Duration) ServerOption {
	return func(s *Server) {
		s.shardStaleness = staleness
		s.maxStaleness = max
	}
}

// WithMaxBodyBytes caps request bodies (default 1 MiB); larger bodies
// are rejected with 413 ("too_large"). n <= 0 restores the default.
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// NewMultiUser serves a directory of per-user profiles: every endpoint
// (except /env) takes a ?user=name parameter, defaulting to "default".
// Unknown users are created on first write and on first read.
func NewMultiUser(dir *contextpref.Directory, opts ...ServerOption) (*Server, error) {
	if dir == nil {
		return nil, fmt.Errorf("httpapi: nil directory")
	}
	s := &Server{directory: dir, environment: dir.Env(), values: renderRelation(dir.Relation())}
	s.init(opts)
	return s, nil
}

func (s *Server) init(opts []ServerOption) {
	s.logger = slog.Default()
	s.maxBody = 1 << 20
	for _, o := range opts {
		o(s)
	}
	s.routes()
}

// SetDraining marks the server as shutting down (or not): while
// draining, /readyz answers 503 so load balancers stop routing new
// traffic; in-flight and already-accepted requests are still served.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Directory returns the served directory.
func (s *Server) Directory() *contextpref.Directory { return s.directory }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /env", s.handleEnv)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /preferences", s.handleExport)
	s.mux.HandleFunc("POST /preferences", s.handleAdd)
	s.mux.HandleFunc("DELETE /preferences", s.handleRemove)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /resolve", s.handleResolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /users", s.handleUsers)
}

// userOf names the user a request is served as: its ?user parameter,
// or "default" when that is absent or empty. Routing, the staleness
// gate and the rate limiter all ask here, so a malformed query cannot
// be served as one user and charged to another.
func userOf(r *http.Request) string {
	if user := r.URL.Query().Get("user"); user != "" {
		return user
	}
	return "default"
}

// system picks the target system for a request. First contact with an
// unknown user creates it under the request's context, so the creation
// (and its journal write) shows up in the request's trace.
func (s *Server) system(r *http.Request) (*contextpref.SafeSystem, error) {
	return s.directory.UserCtx(r.Context(), userOf(r))
}

func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.directory.Users())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if len(s.shardHealth) > 0 {
		s.writeShardReadyz(w)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// shardStatus is one shard's entry in the /readyz payload.
type shardStatus struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Status is "healthy", "degraded", "following", or "stale".
	Status string `json:"status"`
	// LagSeconds is the shard's segment-stream replication lag,
	// present only on a follower (WithShardReplica).
	LagSeconds *float64 `json:"lag_seconds,omitempty"`
}

// writeShardReadyz answers /readyz for a store: per-shard states, 503
// only when every shard is unusable (a partially degraded or partially
// stale store still serves the rest). On a follower each shard carries
// its own segment-stream lag and is marked stale individually — the
// streams fail independently, so a single number would either hide a
// lagging shard or condemn the fresh ones.
func (s *Server) writeShardReadyz(w http.ResponseWriter) {
	if len(s.shardHealth) > 0 && s.shardHealth[0].Role() == contextpref.RolePromoting {
		// Mid-takeover: neither a consistent replica nor a leader yet.
		// Roles flip node-wide, so the first shard speaks for all.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "promoting"})
		return
	}
	shards := make([]shardStatus, len(s.shardHealth))
	degraded, stale, following := 0, 0, false
	for i, h := range s.shardHealth {
		st := "healthy"
		if h.Role() == contextpref.RoleFollower {
			following = true
			st = "following"
			if s.shardStaleness != nil {
				lag := s.shardStaleness(i)
				sec := lag.Seconds()
				shards[i].LagSeconds = &sec
				if s.maxStaleness > 0 && lag > s.maxStaleness {
					st = "stale"
					stale++
				}
			}
		}
		if h.Degraded() {
			st = "degraded"
			degraded++
		}
		shards[i].Shard = h.Shard()
		shards[i].Status = st
	}
	status, code := "ready", http.StatusOK
	switch {
	case degraded+stale == len(shards) && degraded > 0:
		status, code = "degraded", http.StatusServiceUnavailable
	case stale == len(shards) && stale > 0:
		status, code = "stale", http.StatusServiceUnavailable
	case degraded > 0:
		status = "degraded_partial"
	case stale > 0:
		status = "stale_partial"
	case following:
		status = "following"
	}
	writeJSON(w, code, map[string]any{"status": status, "shards": shards})
}

// overStaleFor resolves the staleness gate for one request on a
// follower: a user-scoped read answers for its own user's shard, and
// only the all-shard /users enumeration answers for the worst one.
// Always in-bound on a leader (no staleness source) or when no bound is
// configured.
func (s *Server) overStaleFor(r *http.Request) (lag time.Duration, shard int, over bool) {
	if s.shardStaleness == nil || s.maxStaleness <= 0 {
		return 0, 0, false
	}
	if r.URL.Path == "/users" {
		for i := 0; i < s.directory.NumShards(); i++ {
			if l := s.shardStaleness(i); l > lag {
				lag, shard = l, i
			}
		}
		return lag, shard, lag > s.maxStaleness
	}
	shard = s.directory.ShardOf(userOf(r))
	lag = s.shardStaleness(shard)
	return lag, shard, lag > s.maxStaleness
}

// staleGated reports whether a request reads replicated data and is
// therefore subject to the follower staleness bound. Mutations are
// exempt — they fail with "read_only" at the store's role gate, which
// is the more actionable error — as is the immutable /env.
func staleGated(r *http.Request) bool {
	if isProbe(r) || r.URL.Path == "/env" {
		return false
	}
	if r.Method == http.MethodGet {
		return true
	}
	return r.Method == http.MethodPost && r.URL.Path == "/query"
}

// isProbe reports whether the request targets a health endpoint, which
// bypasses the concurrency limiter.
func isProbe(r *http.Request) bool {
	return r.URL.Path == "/healthz" || r.URL.Path == "/readyz"
}

// ServeHTTP implements http.Handler: request-ID tagging, telemetry and
// panic recovery, then — for non-probe requests — the server deadline,
// per-user rate limiting, deadline-aware admission to the inflight
// semaphore, chaos injection, and finally the route mux. Probes
// (/healthz, /readyz) bypass every limit so they see the truth even
// when the server is saturated.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = strconv.FormatUint(s.nextID.Add(1), 10)
	}
	w.Header().Set("X-Request-ID", rid)

	start := time.Now()
	endpoint := endpointLabel(r.URL.Path)
	probe := isProbe(r)
	rec := &statusRecorder{ResponseWriter: w}
	s.metrics.begin()

	// Build the request context in one pass — trace root, then
	// deadline — so the hot path pays a single Request copy however
	// many layers are enabled.
	var root *tracing.Span
	if !probe {
		ctx := r.Context()
		if s.tracer != nil {
			remote, _ := tracing.ParseTraceparent(r.Header.Get("traceparent"))
			ctx, root = s.tracer.StartRootAt(ctx, rootSpanName(endpoint), remote, start)
			root.SetString("method", r.Method)
			root.SetString("path", r.URL.Path)
			root.SetString("request_id", rid)
			w.Header().Set("Traceparent", root.Traceparent())
		}
		if s.reqTimeout > 0 {
			var cancel func()
			ctx, cancel = withLazyDeadline(ctx, s.reqTimeout)
			defer cancel()
		}
		if root != nil || s.reqTimeout > 0 {
			r = r.WithContext(ctx)
		}
	}

	defer func() {
		if p := recover(); p != nil {
			s.metrics.panicked()
			s.logger.Error("panic serving request",
				"request_id", rid,
				"method", r.Method,
				"path", r.URL.Path,
				"panic", p,
				"stack", string(debug.Stack()))
			// Best-effort: if the handler already wrote headers this is
			// a no-op on the status line.
			writeError(rec, http.StatusInternalServerError, "internal",
				fmt.Errorf("httpapi: internal server error (request %s)", rid))
		}
		status := rec.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing
		}
		elapsed := time.Since(start)
		s.metrics.done(endpoint, r.Method, status, elapsed)
		if !probe {
			s.observeService(elapsed)
		}
		if root != nil {
			root.SetInt("status", int64(status))
			if status >= http.StatusInternalServerError {
				root.Fail(fmt.Errorf("httpapi: status %d", status))
			}
			// The root reuses the middleware's own clock readings
			// (StartRootAt above, elapsed here): no extra time syscalls
			// on the traced hot path.
			root.EndAfter(elapsed)
		}
		if s.slowThreshold > 0 && elapsed >= s.slowThreshold {
			attrs := []any{
				"request_id", rid,
				"method", r.Method,
				"path", r.URL.Path,
				"status", status,
				"duration", elapsed,
				"bytes", rec.bytes,
			}
			if root != nil {
				attrs = append(attrs, "trace_id", root.TraceID())
				if snap := root.Snapshot(); snap != nil {
					for i, sd := range snap.Slowest(3) {
						attrs = append(attrs,
							fmt.Sprintf("span%d", i+1),
							fmt.Sprintf("%s=%s", sd.Name, sd.Duration))
					}
				}
			}
			s.logger.Warn("slow request", attrs...)
		}
		// Last touch of the trace: recycle a dropped trace's buffers.
		// Safe here because every span under the root is synchronous
		// with the request (retained or snapshotted traces are not
		// recycled).
		root.Release()
	}()

	if !probe {
		if s.limiter != nil {
			if retry, ok := s.limiter.allow(rateKey(r)); !ok {
				s.metrics.rateLimited()
				rec.Header().Set("Retry-After", retryAfterSeconds(retry))
				writeError(rec, http.StatusTooManyRequests, "rate_limited",
					fmt.Errorf("httpapi: rate limit exceeded for this user/key, retry later"))
				return
			}
		}
		if s.sem != nil {
			if !s.admit(rec, r) {
				return
			}
			defer func() { <-s.sem }()
		}
		if s.chaos != nil && s.chaos.intercept(s, rec, r) {
			return
		}
		if staleGated(r) {
			if lag, shard, over := s.overStaleFor(r); over {
				rec.Header().Set("Retry-After", "1")
				writeError(rec, http.StatusServiceUnavailable, "stale",
					fmt.Errorf("httpapi: shard %d's replica stream is %s behind, over the %s staleness bound; retry a fresher replica",
						shard, lag.Round(time.Millisecond), s.maxStaleness))
				return
			}
		}
	}
	s.mux.ServeHTTP(rec, r)
}

// statusClientClosedRequest is the nginx-convention status for a client
// that went away before the response; nothing reads the body, the code
// exists for logs and metrics.
const statusClientClosedRequest = 499

// writeCtxError answers a context-expiry error with its structured
// form — 503 {"code":"deadline"} + Retry-After for a server deadline,
// 499 {"code":"canceled"} for a client disconnect — and reports whether
// err was such an error. Handlers call it first on evaluation errors so
// a deadline surfacing from deep inside a scan loop is classified
// before the generic bad_request mapping.
func (s *Server) writeCtxError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timedOut()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "deadline",
			fmt.Errorf("httpapi: request deadline exceeded: %w", err))
		return true
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "canceled",
			fmt.Errorf("httpapi: client closed request: %w", err))
		return true
	}
	return false
}

// writeJSON sends a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeJSONHeader(w, status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBytes sends a response body already encoded as JSON.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	writeJSONHeader(w, status)
	_, _ = w.Write(body)
}

// writeJSONHeader starts a JSON response for writeJSON and
// writeJSONBytes.
func writeJSONHeader(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", "application/json")
	//cpvet:ignore structerr writeJSONHeader is the single blessed WriteHeader call site; every response funnels through writeJSON or writeJSONBytes
	w.WriteHeader(status)
}

// writeError sends a structured JSON error with a machine-readable
// code.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// mutationError classifies an error from a profile mutation: Def. 6
// conflicts (typed, via errors.As) are 409, a replication follower's
// role gate is 503 "read_only", a degraded (read-only) store is 503
// "degraded" with a Retry-After hint, other journal failures are 503
// "unavailable", anything else is the caller's bad input. The degraded
// check precedes the persist check because a *DegradedError wraps the
// *PersistError that caused the transition.
func mutationError(w http.ResponseWriter, err error) {
	var conflict *contextpref.ConflictError
	if errors.As(err, &conflict) {
		writeError(w, http.StatusConflict, "conflict", err)
		return
	}
	var readOnly *contextpref.ReadOnlyError
	if errors.As(err, &readOnly) {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "read_only", err)
		return
	}
	var degraded *contextpref.DegradedError
	if errors.As(err, &degraded) {
		w.Header().Set("Retry-After", "5")
		if degraded.Shard >= 0 {
			// Name the failing fault domain: only this shard's users are
			// read-only, the rest of the store still accepts mutations.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error": err.Error(), "code": "degraded", "shard": degraded.Shard})
			return
		}
		writeError(w, http.StatusServiceUnavailable, "degraded", err)
		return
	}
	var persist *contextpref.PersistError
	if errors.As(err, &persist) {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "unavailable", err)
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err)
}

// bodyPresize bounds how much of a declared Content-Length readBody
// allocates before the bytes arrive. A 522-preference upload is about
// 49 KB, so one allocation holds it; a larger body grows as it is read,
// and a client that declares a length and stalls pins no more than this.
const bodyPresize = 64 << 10

// readBody reads a request body through the body cap's MaxBytesReader
// and converts it to a string once. A declared Content-Length within
// the cap sizes the buffer, up to bodyPresize, with the free
// bytes.MinRead the read that meets the end needs, so a usual upload is
// read into one allocation instead of a buffer regrown step by step.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (string, error) {
	var b bytes.Buffer
	if n := r.ContentLength; n >= 0 && n <= s.maxBody {
		b.Grow(int(min(n, bodyPresize)) + bytes.MinRead)
	}
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		return "", err
	}
	return b.String(), nil
}

// bodyError classifies a request-body read failure: the MaxBytesReader
// cap is the client's oversized payload (413), anything else is a bad
// request.
func bodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", err)
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err)
}

// EnvParameter describes one context parameter in GET /env.
type EnvParameter struct {
	// Name is the parameter name.
	Name string `json:"name"`
	// Levels are the hierarchy level names, detailed first.
	Levels []string `json:"levels"`
	// DetailedDomain is the size of the detailed domain.
	DetailedDomain int `json:"detailed_domain"`
	// SampleValues holds the first few detailed values.
	SampleValues []string `json:"sample_values"`
}

func (s *Server) handleEnv(w http.ResponseWriter, r *http.Request) {
	// The environment is immutable, so no locking is needed here.
	env := s.environment
	out := make([]EnvParameter, 0, env.NumParams())
	for i := 0; i < env.NumParams(); i++ {
		p := env.Param(i)
		h := p.Hierarchy()
		dv := h.DetailedValues()
		sample := dv
		if len(sample) > 10 {
			sample = sample[:10]
		}
		out = append(out, EnvParameter{
			Name:           p.Name(),
			Levels:         h.Levels(),
			DetailedDomain: len(dv),
			SampleValues:   sample,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sys, err := s.system(r)
	if err != nil {
		mutationError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sys.Stats())
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	sys, err := s.system(r)
	if err != nil {
		mutationError(w, err)
		return
	}
	text, err := sys.ExportProfile()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, text)
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	sys, err := s.system(r)
	if err != nil {
		mutationError(w, err)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	// Mutations are not cancellable once the journal append starts, but
	// a deadline that already expired (e.g. during a slow body read)
	// fails fast here instead of doing durable work nobody waits for.
	if err := r.Context().Err(); err != nil {
		s.writeCtxError(w, err)
		return
	}
	if err := sys.LoadProfileCtx(r.Context(), body); err != nil {
		mutationError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"preferences": sys.NumPreferences()})
}

// handleRemove deletes preferences given one per line in the same text
// encoding POST accepts; the response reports how many leaf entries
// were removed. Every line is parsed and its descriptor validated
// before the user is looked up, so a 400 means nothing changed: no
// removal, and no user created by its first access. Each line is then
// its own removal and its own journal append: a failure past validation
// (a degraded shard, a failed append) leaves the lines before it
// removed. The body is not one atomic unit.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		bodyError(w, err)
		return
	}
	// Same arrival check as handleAdd: fail fast on an already-expired
	// deadline before any durable work.
	if err := r.Context().Err(); err != nil {
		s.writeCtxError(w, err)
		return
	}
	var ps []contextpref.Preference
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := contextpref.ParsePreference(line)
		if err == nil {
			_, err = p.Descriptor.Context(s.environment)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		ps = append(ps, p)
	}
	sys, err := s.system(r)
	if err != nil {
		mutationError(w, err)
		return
	}
	removed := 0
	for _, p := range ps {
		n, err := sys.RemovePreferenceCtx(r.Context(), p)
		if err != nil {
			mutationError(w, err)
			return
		}
		removed += n
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"removed":     removed,
		"preferences": sys.NumPreferences(),
	})
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is a cpql query text ("top 5 where type = museum context
	// time = morning"); empty means "everything under the current
	// context".
	Query string `json:"query"`
	// Current is the implicit context state, one value per parameter;
	// may be empty when the query carries a context clause.
	Current []string `json:"current,omitempty"`
}

// QueryTuple is one ranked answer row.
type QueryTuple struct {
	// Score is the combined interest score.
	Score float64 `json:"score"`
	// Values are the tuple's column values as strings, in schema order.
	Values []string `json:"values"`
}

// QueryResponse is the POST /query result.
type QueryResponse struct {
	// Contextual is false when the query fell back to plain execution.
	Contextual bool `json:"contextual"`
	// Matched describes the resolved states ("(Plaka, warm, all) @ 0.667").
	Matched []string `json:"matched,omitempty"`
	// Tuples is the ranked answer.
	Tuples []QueryTuple `json:"tuples"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sys, err := s.system(r)
	if err != nil {
		mutationError(w, err)
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		bodyError(w, err)
		return
	}
	cq, err := contextpref.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	var current contextpref.State
	if len(req.Current) > 0 {
		current, err = sys.NewState(req.Current...)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
	}
	if len(cq.Ecod) == 0 && current == nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("httpapi: query needs a context clause or a current state"))
		return
	}
	res, err := sys.QueryCtx(r.Context(), cq, current)
	if err != nil {
		if s.writeCtxError(w, err) {
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	bp := respBufs.Get().(*[]byte)
	body, ok := s.appendQueryResponse((*bp)[:0], res)
	if !ok {
		// A non-finite score: json.Encoder refuses the whole value after
		// the header is out, so the answer is a 200 with no body.
		body = body[:0]
	}
	writeJSONBytes(w, http.StatusOK, body)
	if cap(body) <= maxPooledResp {
		*bp = body
		respBufs.Put(bp)
	}
}

// respBufs recycles /query response buffers; one larger than
// maxPooledResp is left to the collector instead.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 64 << 10

// appendQueryResponse appends the /query answer for res to dst, byte
// for byte what json.Encoder writes for the equivalent QueryResponse,
// trailing newline included. ok is false if a score is not finite,
// which encoding/json refuses to encode.
func (s *Server) appendQueryResponse(dst []byte, res *contextpref.Result) (_ []byte, ok bool) {
	dst = append(dst, `{"contextual":`...)
	dst = strconv.AppendBool(dst, res.Contextual)
	matched := 0
	for _, rl := range res.Resolutions {
		if !rl.Found {
			continue
		}
		if matched == 0 {
			dst = append(dst, `,"matched":[`...)
		} else {
			dst = append(dst, ',')
		}
		matched++
		m, _ := json.Marshal(fmt.Sprintf("%s @ %.3f", rl.Match.State, rl.Match.Distance))
		dst = append(dst, m...)
	}
	if matched > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, `,"tuples":`...)
	if len(res.Tuples) == 0 {
		dst = append(dst, "null"...)
	}
	for i, t := range res.Tuples {
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"score":`...)
		if dst, ok = appendJSONFloat(dst, t.Score); !ok {
			return dst, false
		}
		dst = append(dst, `,"values":`...)
		if t.Index < len(s.values) {
			dst = append(dst, s.values[t.Index]...)
		} else {
			dst = append(dst, renderValues(t.Tuple)...)
		}
		dst = append(dst, '}')
	}
	if len(res.Tuples) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), true
}

// renderRelation renders the values of every tuple of rel.
func renderRelation(rel *contextpref.Relation) [][]byte {
	out := make([][]byte, rel.Len())
	for i := range out {
		out[i] = renderValues(rel.Tuple(i))
	}
	return out
}

// renderValues renders a tuple's QueryTuple.Values: its column values
// as strings, in schema order, as a JSON array.
func renderValues(t contextpref.Tuple) []byte {
	vals := make([]string, len(t))
	for i, v := range t {
		vals[i] = v.String()
	}
	b, _ := json.Marshal(vals)
	return b
}

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// on, with a one-digit negative exponent unpadded (1e-07 → 1e-7). ok is
// false for NaN and ±Inf, which JSON cannot represent.
func appendJSONFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// ResolveCandidate is one covering state in GET /resolve.
type ResolveCandidate struct {
	// State renders the candidate context state.
	State string `json:"state"`
	// Distance is the metric distance to the query state.
	Distance float64 `json:"distance"`
	// Specificity is the number of detailed states the candidate covers.
	Specificity int `json:"specificity"`
	// Entries renders the stored clauses and scores.
	Entries []string `json:"entries"`
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	sys, err := s.system(r)
	if err != nil {
		mutationError(w, err)
		return
	}
	raw := r.URL.Query().Get("state")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("httpapi: missing state parameter"))
		return
	}
	st, err := sys.NewState(strings.Split(raw, ",")...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	cands, err := sys.ResolveAllCtx(r.Context(), st)
	if err != nil {
		if s.writeCtxError(w, err) {
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	out := make([]ResolveCandidate, 0, len(cands))
	for _, c := range cands {
		rc := ResolveCandidate{
			State:       c.State.String(),
			Distance:    c.Distance,
			Specificity: c.Specificity,
		}
		for _, e := range c.Entries {
			rc.Entries = append(rc.Entries, fmt.Sprintf("%s : %.2f", e.Clause, e.Score))
		}
		out = append(out, rc)
	}
	writeJSON(w, http.StatusOK, out)
}
