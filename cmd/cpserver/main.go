// Command cpserver runs the context-aware preference database as an
// HTTP service over the generated points-of-interest database.
//
// Usage:
//
//	cpserver [-addr :8080] [-pois 300] [-seed 7] [-metric jaccard]
//	         [-profile file] [-cache 64] [-store dir]
//	         [-max-inflight 256] [-max-body 1048576] [-shutdown-timeout 10s]
//	         [-probe-interval 2s] [-admin-addr :8081] [-slow-request 500ms]
//	         [-log-level info] [-request-timeout 5s] [-rate-limit 0]
//	         [-rate-burst 0] [-read-header-timeout 5s]
//	         [-chaos-latency 0] [-chaos-jitter 0] [-chaos-error-rate 0]
//	         [-chaos-seed 1] [-replicate-addr :8090] [-follow addr]
//	         [-max-staleness 5s] [-promote-after 0] [-trace-sample 0]
//	         [-slow-trace 0] [-trace-buffer 256] [-shards 1]
//	         [-max-resident-users 0] [-compact-interval 1m] [-version]
//
// Endpoints (see the httpapi package for payloads):
//
//	GET  /env
//	GET  /stats
//	GET  /preferences
//	POST /preferences
//	DELETE /preferences
//	POST /query
//	GET  /resolve?state=v1,v2,v3
//	GET  /users
//	GET  /healthz
//	GET  /readyz
//
// Observability. With -admin-addr a second listener serves the
// operational endpoints, kept off the public port:
//
//	GET /metrics        Prometheus text format (cp_http_*, cp_resolve_*,
//	                    cp_journal_*, cp_directory_*, cp_trace_*,
//	                    process gauges)
//	GET /varz           the same registry as JSON
//	GET /debug/pprof/   the net/http/pprof profiling suite
//	GET /debug/traces   retained request traces as JSON
//	                    (?trace_id=<32 hex> for one, ?limit=N)
//
// All server logs are structured (log/slog, text format, level set by
// -log-level) and request-scoped lines carry the request ID. Requests
// slower than -slow-request are logged at Warn level; 0 disables the
// slow-request log.
//
// Tracing. Every non-probe request runs under a root span that honors
// an inbound W3C traceparent header and is echoed back on the
// response; the stages beneath it (resolution, query evaluation,
// journal append/fsync, replication ship) record child spans. Traces
// land in a fixed-size ring with tail-based retention: errored traces
// are always kept, traces slower than -slow-trace (default: the
// -slow-request threshold) are kept verbatim, and a -trace-sample
// fraction of healthy traces is head-sampled on top. -trace-buffer
// bounds the ring; /debug/traces reads it. Requests slower than
// -slow-request log a WARN line carrying the trace_id and the
// slowest spans. -version prints build identity (also exported as the
// cp_build_info gauge) and exits.
//
// Users. The server holds a directory of per-user profiles over the
// one shared database and context model: every data endpoint takes
// ?user=name, defaulting to "default", GET /users lists the known
// users, and an unknown user is created on first access. With -profile
// every new user starts from that profile; a file that does not parse,
// or whose lines conflict with each other, fails startup.
//
// Durability. With -store dir, every profile mutation is journaled
// (fsync'd, see the internal/journal package for the record format)
// before it is applied; on startup the server replays the snapshot and
// the journal — tolerating a torn final batch from a crash mid-write —
// and recovers every user's profile exactly, all shards in parallel.
// Recovered users are not re-seeded from -profile. At graceful
// shutdown each journal is compacted into a snapshot.
//
// Store layout. A store is a SHARDS file holding the shard count N
// (-shards, default 1) and one directory per shard,
// <store>/shard-NNN/, holding that shard's journal.cpj and
// snapshot.cpj. The shard count is fixed at store creation because it
// decides which journal segment owns a user. A store with a root
// journal.cpj or snapshot.cpj and no SHARDS file predates this layout
// and is refused untouched; the README gives the one-time move.
//
// Degraded mode. When a journal write fails (disk full, I/O error),
// the shard it belongs to flips read-only instead of crashing: its
// users' mutations answer 503 {"code":"degraded","shard":i} with a
// Retry-After hint while reads, resolution, and queries keep serving
// from memory, and the other shards keep accepting mutations. /readyz
// reports every shard's state, and {"status":"degraded"} with 503 once
// every shard is read-only, so load balancers can route writes
// elsewhere. A background probe per shard re-tests its journal every
// -probe-interval and the shard returns to healthy automatically once
// writes succeed again (cp_health_* and cp_shard_degraded track the
// state and transitions).
//
// Sharding. With -shards N the directory splits into N fault-isolated
// shards: each user is routed to one shard by a stable hash of the
// user name, and each shard owns its own journal segment, its own
// health tracker, and its own recovery probe. Compaction is staggered:
// every -compact-interval one shard's segment is compacted,
// round-robin, so snapshot write bursts never overlap.
// -max-resident-users bounds materialized profiles: idle profiles over
// the bound are parked (kept as compact journal records in memory) and
// rebuilt transparently on next access.
//
// Replication. With -replicate-addr a journaled leader streams every
// committed batch to followers (see internal/replication for the wire
// protocol, cprepl/2): each shard's journal segment ships on its own
// connection, and leader and follower must agree on -shards — a
// mismatch is refused at handshake. A follower runs with -follow
// <leader> -store dir: it grafts each segment into its own journal
// independently — one stalled, desynced, or faulted segment stream
// degrades only that shard while the others keep tailing, retrying on
// its own jittered backoff — and serves read-only: mutations answer
// 503 {"code":"read_only"}. Reads are staleness-gated per shard: a read
// of a user on a fresh shard serves even while another shard's stream
// is behind, and a read older than -max-staleness answers 503
// {"code":"stale"} so clients never observe unbounded lag. /readyz
// reports per-shard lag, marks lagging shards "stale" individually,
// and reports "following" while caught up; the cp_replication_shard_*
// metrics carry one series per shard. SIGUSR1 promotes the follower to
// leader (mutations accepted, journals owned); with -promote-after > 0
// the follower promotes itself after that much total leader silence,
// counted across every segment stream (frames on any segment are proof
// of leader life; local progress on one segment never defers it).
// Promotion is whole-node. What is guaranteed per segment — and only
// per segment — is whole-batch prefix consistency; there is no
// cross-shard ordering. A node may follow and replicate at once,
// forming a chain.
//
// Limits & deadlines. Every non-probe request runs under the
// -request-timeout deadline: resolution and query scans check it
// cooperatively and a timed-out request answers a structured 503
// {"code":"deadline"} with Retry-After instead of hanging. -rate-limit
// bounds each user (?user, else "default") to a token-bucket budget,
// answering 429 {"code":"rate_limited"} over it, and admission to the
// -max-inflight semaphore is deadline-aware:
// requests predicted to miss their deadline in the queue are shed on
// arrival with 503 {"code":"shed"}. The -chaos-* flags inject seeded
// latency and error faults (off by default) for resilience drills;
// cp_request_timeouts_total, cp_rate_limited_total, and
// cp_chaos_injected_total track all three on /metrics.
//
// Shutdown. SIGINT/SIGTERM starts a graceful drain: /readyz flips to
// 503 so load balancers stop routing, in-flight requests are served to
// completion (bounded by -shutdown-timeout), then every healthy shard's
// journal is snapshotted and every journal closed.
//
// Example:
//
//	curl -X POST 'localhost:8080/preferences?user=alice' \
//	     -d '[accompanying_people = friends] => type = brewery : 0.9'
//	curl -X POST 'localhost:8080/query?user=alice' \
//	     -d '{"query": "top 5", "current": ["friends", "t03", "ath_r01"]}'
//
// -multiuser is accepted and ignored: every server is multi-user.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"contextpref"
	"contextpref/httpapi"
	"contextpref/internal/dataset"
	"contextpref/internal/faultfs"
	"contextpref/internal/journal"
	"contextpref/internal/replication"
	"contextpref/internal/tracing"
)

// config collects everything build needs; it mirrors the flags.
type config struct {
	pois              int
	seed              int64
	metric            string
	profile           string
	cache             int
	data              string
	store             string
	maxInflight       int
	maxBody           int64
	probeInterval     time.Duration
	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	shutdownTimeout   time.Duration
	slowRequest       time.Duration
	logLevel          string
	requestTimeout    time.Duration
	rateLimit         float64
	rateBurst         int
	chaosLatency      time.Duration
	chaosJitter       time.Duration
	chaosErrorRate    float64
	chaosSeed         int64
	follow            string
	replicateAddr     string
	maxStaleness      time.Duration
	promoteAfter      time.Duration
	traceSample       float64
	slowTrace         time.Duration
	traceBuffer       int
	shards            int
	maxResidentUsers  int
	compactInterval   time.Duration
	// probe overrides every shard's recovery probe (tests only — the
	// real journal's probe succeeds instantly on a healthy disk, which
	// makes a synthetically degraded window unobservably short).
	probe func() error
}

// app is a built server plus its durability and observability hooks.
type app struct {
	api *httpapi.Server
	// journals/healths are the store's per-shard fault domains, both
	// nil without -store: journals[i] is shard i's journal segment and
	// healths[i] its independent degraded-mode tracker. serve runs one
	// recovery probe loop per shard.
	journals []*journal.Journal
	healths  []*contextpref.Health
	// compactor staggers per-shard journal compaction and compacts
	// every healthy shard at shutdown; non-nil exactly when journals
	// is.
	compactor *contextpref.StaggeredCompactor
	// reg is the telemetry registry every layer reports into.
	reg *contextpref.TelemetryRegistry
	// admin serves /metrics, /varz, and pprof on the -admin-addr
	// listener.
	admin http.Handler
	// logger is the structured logger shared with the HTTP layer.
	logger *slog.Logger
	// leader ships journal appends to followers; non-nil when
	// -replicate-addr is set (serve opens the listener).
	leader *replication.Leader
	// follower tails the -follow leader; serve runs its loop.
	follower *replication.Follower
	// promote turns a follower into the leader: role flip, persister
	// attach, and — with -replicate-addr — shipping to its own
	// followers. Called from serve when the follower loop reports
	// ErrPromoted; non-nil exactly when follower is.
	promote func()
}

// versionString renders the binary's build identity for -version: the
// module version, the Go toolchain, and the VCS revision — the same
// fields the cp_build_info metric exports.
func versionString() string {
	version, goVersion, revision := "(devel)", "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	return fmt.Sprintf("cpserver %s (go: %s, revision: %s)", version, goVersion, revision)
}

// shardMeta reconciles the store's SHARDS meta file with the -shards
// flag, creating it in a fresh store. The shard count decides which
// journal segment owns a user — it is fixed when the store is created
// and every later open must match, or replay would look for users in
// the wrong segments. A store that holds a root journal or snapshot
// predates the sharded layout, or is halfway through the README's
// move: it is refused, and none of its files is touched.
func shardMeta(store string, shards int) error {
	for _, name := range []string{"journal.cpj", "snapshot.cpj"} {
		if _, err := os.Stat(filepath.Join(store, name)); err == nil {
			return fmt.Errorf("store %s holds a root %s, the layout of an older cpserver; it was left untouched. "+
				"A multi-user store moves into %s with a SHARDS file holding 1 (see README); a single-user store must be exported and re-posted",
				store, name, journal.ShardDir(0))
		}
	}
	path := filepath.Join(store, "SHARDS")
	if b, err := os.ReadFile(path); err == nil {
		n, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil || n < 1 {
			return fmt.Errorf("store %s has a corrupt SHARDS file: %q", store, strings.TrimSpace(string(b)))
		}
		if n != shards {
			return fmt.Errorf("store %s was created with %d shards; pass -shards %d (the shard count fixes journal-segment ownership and cannot change)", store, n, n)
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(store, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strconv.Itoa(shards)+"\n"), 0o644)
}

// seedProfile reads the -profile file: the preferences every new user
// starts from. A line that does not parse, names a value outside the
// environment, or conflicts with an earlier line (Def. 6) fails the
// build, since no user could be seeded from the file.
func seedProfile(env *contextpref.Environment, path string) ([]contextpref.Preference, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pr, err := contextpref.NewProfile(env)
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := contextpref.ParsePreference(line)
		if err == nil {
			err = pr.Add(p)
		}
		if err != nil {
			return nil, fmt.Errorf("-profile %s line %d: %w", path, i+1, err)
		}
	}
	return pr.Preferences(), nil
}

// newLogger builds the process logger at the named level ("" = info).
func newLogger(level string) (*slog.Logger, error) {
	var l slog.Level
	if level != "" {
		if err := l.UnmarshalText([]byte(level)); err != nil {
			return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
		}
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l})), nil
}

func main() {
	var cfg config
	var addr, adminAddr string
	flag.StringVar(&addr, "addr", ":8080", "listen address")
	flag.StringVar(&adminAddr, "admin-addr", "", "admin listener address for /metrics, /varz, /debug/pprof (empty = disabled)")
	flag.IntVar(&cfg.pois, "pois", 300, "number of points of interest to generate")
	flag.Int64Var(&cfg.seed, "seed", 7, "random seed for the demo database")
	flag.StringVar(&cfg.metric, "metric", "jaccard", "context-resolution metric: jaccard or hierarchy")
	flag.StringVar(&cfg.profile, "profile", "", "profile file every new user starts from (users recovered from -store keep their own)")
	flag.IntVar(&cfg.cache, "cache", 64, "context query tree capacity (0 = unbounded, -1 = disabled)")
	flag.StringVar(&cfg.data, "data", "", "CSV file with points of interest (header: pid,name,type,location,open_air,hours_of_operation,admission_cost)")
	flag.Bool("multiuser", false, "ignored: every server serves per-user profiles selected by ?user=name")
	flag.StringVar(&cfg.store, "store", "", "directory for the durable per-shard profile journals (empty = in-memory only)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 256, "maximum concurrently served requests (0 = unlimited)")
	flag.Int64Var(&cfg.maxBody, "max-body", 1<<20, "maximum request body size in bytes")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", 2*time.Second, "how often to probe a degraded store for recovery")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 10*time.Second, "HTTP read timeout (full request including body)")
	flag.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 5*time.Second, "HTTP header read timeout (slowloris guard)")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "HTTP write timeout")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 120*time.Second, "HTTP idle connection timeout")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 5*time.Second, "server-enforced per-request deadline; timed-out requests answer 503 {\"code\":\"deadline\"} (0 = disabled)")
	flag.Float64Var(&cfg.rateLimit, "rate-limit", 0, "per-user request rate limit in requests/second; over-budget requests answer 429 (0 = disabled)")
	flag.IntVar(&cfg.rateBurst, "rate-burst", 0, "token-bucket burst capacity for -rate-limit (0 = ceil(rate))")
	flag.DurationVar(&cfg.chaosLatency, "chaos-latency", 0, "chaos: latency injected into every request before the handler (0 = disabled)")
	flag.DurationVar(&cfg.chaosJitter, "chaos-jitter", 0, "chaos: uniformly random extra latency in [0, jitter)")
	flag.Float64Var(&cfg.chaosErrorRate, "chaos-error-rate", 0, "chaos: probability in [0,1] of failing a request with 500 {\"code\":\"chaos\"}")
	flag.Int64Var(&cfg.chaosSeed, "chaos-seed", 1, "chaos: seed for the deterministic fault stream")
	flag.StringVar(&cfg.follow, "follow", "", "leader replication address to tail; the node serves read-only (requires -store)")
	flag.StringVar(&cfg.replicateAddr, "replicate-addr", "", "listen address for the journal replication stream (requires -store)")
	flag.DurationVar(&cfg.maxStaleness, "max-staleness", 5*time.Second, "follower reads older than this answer 503 {\"code\":\"stale\"}")
	flag.DurationVar(&cfg.promoteAfter, "promote-after", 0, "promote the follower after this much total leader silence; 0 = only on SIGUSR1")
	flag.IntVar(&cfg.shards, "shards", 1, "split the user directory into this many fault-isolated shards, each with its own journal segment and health tracker (fixed at store creation)")
	flag.IntVar(&cfg.maxResidentUsers, "max-resident-users", 0, "bound on materialized per-user profiles; idle profiles over the bound are parked and rebuilt on access (0 = unlimited)")
	flag.DurationVar(&cfg.compactInterval, "compact-interval", time.Minute, "compact one shard's journal segment per tick, round-robin (with -store)")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "graceful drain deadline on SIGTERM")
	flag.DurationVar(&cfg.slowRequest, "slow-request", 500*time.Millisecond, "log requests served slower than this at Warn level (0 = disabled)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn, or error")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0, "fraction of healthy (fast, successful) traces to retain in the trace ring; slow and errored traces are always kept")
	flag.DurationVar(&cfg.slowTrace, "slow-trace", 0, "retain traces slower than this verbatim (0 = same as -slow-request)")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", 0, "trace ring capacity; older retained traces are overwritten (0 = default 256)")
	var showVersion bool
	flag.BoolVar(&showVersion, "version", false, "print build information and exit")
	flag.Parse()

	if showVersion {
		fmt.Println(versionString())
		return
	}

	a, err := build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpserver:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpserver:", err)
		os.Exit(1)
	}
	var adminLn net.Listener
	if adminAddr != "" {
		adminLn, err = net.Listen("tcp", adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpserver:", err)
			os.Exit(1)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	a.logger.Info("cpserver listening",
		"addr", ln.Addr().String(),
		"admin_addr", adminAddr,
		"pois", cfg.pois,
		"metric", cfg.metric,
		"store", cfg.store)
	if err := serve(ctx, a, ln, adminLn, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cpserver:", err)
		os.Exit(1)
	}
}

// serve runs the hardened HTTP server on the listener — plus, when
// adminLn is non-nil, the admin server for /metrics, /varz, and pprof —
// until ctx is cancelled (SIGINT/SIGTERM in main), then drains
// gracefully: readiness flips to draining, in-flight requests finish
// within cfg.shutdownTimeout, and the journals — when present — are
// compacted into snapshots and closed. The admin listener stays up
// through the drain so the shutdown itself can be observed, and closes
// last. Split from main for testability.
func serve(ctx context.Context, a *app, ln, adminLn net.Listener, cfg config) error {
	hs := &http.Server{
		Handler:           a.api,
		ReadTimeout:       cfg.readTimeout,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// Background store probes, one loop per shard (cheap — each loop
	// sleeps with no timer while its shard is healthy): while degraded,
	// re-test the shard's journal every probe interval and flip back to
	// healthy on the first success. Plus the staggered compactor
	// advancing one shard per tick. The goroutines exit with the serve
	// context at shutdown.
	for i, h := range a.healths {
		probe := a.journals[i].Probe
		if cfg.probe != nil {
			probe = cfg.probe
		}
		go h.Run(ctx, cfg.probeInterval, probe)
	}
	if a.compactor != nil {
		go a.compactor.Run(ctx, cfg.compactInterval, func(shard int, err error) {
			a.logger.Error("shard compaction failed", "shard", shard, "error", err)
		})
	}

	// Replication: a leader ships journal appends on -replicate-addr; a
	// follower tails -follow until shutdown or promotion (SIGUSR1, or
	// leader silence past -promote-after).
	if a.leader != nil {
		rln, err := net.Listen("tcp", cfg.replicateAddr)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		a.logger.Info("replication leader listening", "addr", rln.Addr().String())
		//cpvet:ignore goroutinelife Serve is bounded by rln: leader.Close (called on shutdown below) closes the listener, which unblocks Accept and ends the goroutine
		go func() {
			if err := a.leader.Serve(rln); err != nil {
				a.logger.Error("replication serve failed", "error", err)
			}
		}()
	}
	var followErr chan error
	if a.follower != nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGUSR1)
		defer signal.Stop(sigc)
		go func() {
			for {
				select {
				case <-sigc:
					a.logger.Info("SIGUSR1 received: requesting promotion")
					a.follower.Promote()
				case <-ctx.Done():
					return
				}
			}
		}()
		followErr = make(chan error, 1)
		go func() { followErr <- a.follower.Run(ctx) }()
	}

	var adminSrv *http.Server
	if adminLn != nil {
		// The admin listener carries the same connection timeouts as the
		// main one so a slow or stuck scraper cannot pin admin
		// connections forever. WriteTimeout bounds pprof captures too:
		// /debug/pprof/profile?seconds=N needs N below -write-timeout.
		adminSrv = &http.Server{
			Handler:           a.admin,
			ReadTimeout:       cfg.readTimeout,
			ReadHeaderTimeout: cfg.readHeaderTimeout,
			WriteTimeout:      cfg.writeTimeout,
			IdleTimeout:       cfg.idleTimeout,
		}
		//cpvet:ignore goroutinelife Serve is bounded by adminSrv: the deferred adminSrv.Close three lines down closes the listener and ends the goroutine
		go func() {
			if err := adminSrv.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				a.logger.Error("admin server failed", "error", err)
			}
		}()
		defer adminSrv.Close()
	}

	for {
		select {
		case err := <-errc:
			return err
		case err := <-followErr:
			followErr = nil
			if errors.Is(err, replication.ErrPromoted) {
				a.promote()
				continue // keep serving, now as the leader
			}
			if ctx.Err() == nil {
				// A fatal local fault (wedged journal, failed apply):
				// disk and memory may have diverged, so stop serving.
				return fmt.Errorf("replication follower: %w", err)
			}
		case <-ctx.Done():
		}
		break
	}

	a.logger.Info("shutdown requested, draining", "timeout", cfg.shutdownTimeout)
	a.api.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(sctx)
	if shutdownErr != nil {
		a.logger.Warn("drain incomplete", "error", shutdownErr)
	}
	<-errc // Serve has returned http.ErrServerClosed

	// Quiesce replication before touching the journals: the leader's
	// append taps must detach before compaction rewrites the files, and
	// the follower loop owns local journal writes until it returns.
	if a.leader != nil {
		a.leader.Close()
	}
	if followErr != nil {
		if err := <-followErr; err != nil && !errors.Is(err, context.Canceled) {
			a.logger.Warn("follower loop ended at shutdown", "error", err)
		}
	}

	if a.compactor != nil {
		// All handlers have returned (or been abandoned by the drain
		// deadline — their mutations are journaled before they apply, so
		// the logs are still consistent). Compact every healthy shard's
		// segment (degraded shards keep their journal tail — it is the
		// recovery evidence), then close all segments.
		compactStart := time.Now()
		if err := a.compactor.CompactAll(context.Background()); err != nil {
			a.logger.Error("shard compaction at shutdown failed", "error", err)
		} else {
			a.logger.Info("shard journals compacted",
				"shards", len(a.journals), "duration", time.Since(compactStart))
		}
		for i, j := range a.journals {
			if err := j.Close(); err != nil {
				return fmt.Errorf("closing shard %d journal: %w", i, err)
			}
		}
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}

// build assembles the user directory, the optional per-shard journals,
// the telemetry registry, replication, and the HTTP and admin servers;
// split from main for testability.
func build(cfg config) (*app, error) {
	logger, err := newLogger(cfg.logLevel)
	if err != nil {
		return nil, err
	}
	if cfg.follow != "" && cfg.store == "" {
		return nil, errors.New("-follow requires -store: the follower tails the leader into local journals")
	}
	if cfg.replicateAddr != "" && cfg.store == "" {
		return nil, errors.New("-replicate-addr requires -store: only a journaled node can ship records")
	}
	if cfg.shards < 1 {
		cfg.shards = 1 // zero value: tests build config directly
	}
	if cfg.store != "" {
		if err := shardMeta(cfg.store, cfg.shards); err != nil {
			return nil, err
		}
	}
	reg := contextpref.NewTelemetryRegistry()
	registerProcessMetrics(reg)
	contextpref.RegisterBuildInfo(reg)

	// The tracer is always on: slow and errored traces are cheap to
	// retain and exactly what an operator needs after an incident.
	// -trace-sample adds head-sampled healthy traces on top.
	slowTrace := cfg.slowTrace
	if slowTrace <= 0 {
		slowTrace = cfg.slowRequest
	}
	tracer := tracing.New(tracing.Config{
		SlowTrace:  slowTrace,
		SampleRate: cfg.traceSample,
		Capacity:   cfg.traceBuffer,
		Metrics:    contextpref.NewTraceMetrics(reg),
	})

	env, err := dataset.RealEnvironment()
	if err != nil {
		return nil, err
	}
	var rel *contextpref.Relation
	if cfg.data != "" {
		f, err := os.Open(cfg.data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rel, err = dataset.POIsFromCSV(env, f)
		if err != nil {
			return nil, err
		}
	} else {
		rel, err = dataset.POIs(env, cfg.pois, cfg.seed)
		if err != nil {
			return nil, err
		}
	}
	if err := rel.CreateIndex("type"); err != nil {
		return nil, err
	}
	metric, err := contextpref.MetricByName(cfg.metric)
	if err != nil {
		return nil, err
	}
	opts := []contextpref.Option{contextpref.WithMetric(metric), contextpref.WithTelemetry(reg)}
	if cfg.cache >= 0 {
		opts = append(opts, contextpref.WithQueryCache(cfg.cache))
	}
	dopts := []contextpref.DirectoryOption{
		contextpref.WithSystemOptions(opts...),
		contextpref.WithDirectoryTelemetry(reg),
		contextpref.WithShards(cfg.shards),
	}
	if cfg.maxResidentUsers > 0 {
		dopts = append(dopts, contextpref.WithMaxResidentUsers(cfg.maxResidentUsers))
	}
	if cfg.profile != "" {
		// Every new user starts from the given profile; it is parsed and
		// checked once here so per-user seeding is just a copy.
		seed, err := seedProfile(env, cfg.profile)
		if err != nil {
			return nil, err
		}
		dopts = append(dopts, contextpref.WithDefaultProfile(func(string) ([]contextpref.Preference, error) {
			return seed, nil
		}))
	}
	dir, err := contextpref.NewDirectory(env, rel, dopts...)
	if err != nil {
		return nil, err
	}

	sopts := []httpapi.ServerOption{
		httpapi.WithTelemetry(reg),
		httpapi.WithLogger(logger),
		httpapi.WithSlowRequestThreshold(cfg.slowRequest),
		httpapi.WithTracer(tracer),
	}
	if cfg.maxInflight > 0 {
		sopts = append(sopts, httpapi.WithMaxInflight(cfg.maxInflight))
	}
	if cfg.maxBody > 0 {
		sopts = append(sopts, httpapi.WithMaxBodyBytes(cfg.maxBody))
	}
	if cfg.requestTimeout > 0 {
		sopts = append(sopts, httpapi.WithRequestTimeout(cfg.requestTimeout))
	}
	if cfg.rateLimit > 0 {
		sopts = append(sopts, httpapi.WithRateLimit(cfg.rateLimit, cfg.rateBurst))
	}
	if cfg.chaosLatency > 0 || cfg.chaosJitter > 0 || cfg.chaosErrorRate > 0 {
		logger.Warn("chaos injection enabled",
			"latency", cfg.chaosLatency,
			"jitter", cfg.chaosJitter,
			"error_rate", cfg.chaosErrorRate,
			"seed", cfg.chaosSeed)
		sopts = append(sopts, httpapi.WithChaos(httpapi.ChaosConfig{
			Latency:   cfg.chaosLatency,
			Jitter:    cfg.chaosJitter,
			ErrorRate: cfg.chaosErrorRate,
			Seed:      cfg.chaosSeed,
		}))
	}

	a := &app{reg: reg, admin: adminHandler(reg, tracer), logger: logger}
	fail := func(err error) (*app, error) {
		for _, j := range a.journals {
			j.Close()
		}
		return nil, err
	}
	if cfg.store != "" {
		if err := a.openStore(cfg, dir); err != nil {
			return fail(err)
		}
		sopts = append(sopts, httpapi.WithShardHealth(a.healths))
	}

	// Replication telemetry: one cp_replication_shard_* series per
	// shard, so a lagging or flapping segment stream is attributable.
	var replMetrics []*replication.Metrics
	if cfg.replicateAddr != "" || cfg.follow != "" {
		replMetrics = contextpref.NewShardedReplicationMetrics(reg, cfg.shards)
	}
	if cfg.replicateAddr != "" {
		// The leader taps every journal segment now; serve opens the
		// listener, and each follower connection streams one segment. A
		// node can follow and replicate at once — chain replication —
		// because grafted batches re-fire the append taps.
		a.leader = replication.NewShardedLeader(a.journals, replication.LeaderConfig{
			Logger:         logger,
			SegmentMetrics: replMetrics,
			Tracer:         tracer,
		})
	}
	if cfg.follow != "" {
		// One stream per journal segment, all to the same leader
		// address; each grafts into its own shard only, so a faulted
		// segment degrades one shard while the rest keep tailing. The
		// whole node follows — mutations on every shard answer
		// read_only until promotion.
		fol, err := replication.NewShardedFollower(a.journals, replication.FollowerConfig{
			DialSegment: func(ctx context.Context, _ int) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", cfg.follow)
			},
			ApplySegment: dir.ReplayShard,
			ResetSegment: dir.ResetShardReplicated,
			SegmentFault: func(seg int, err error) {
				a.healths[seg].MarkDegraded(fmt.Errorf("replication stream stopped: %w", err))
			},
			Rand:           rand.New(rand.NewSource(time.Now().UnixNano())),
			PromoteAfter:   cfg.promoteAfter,
			Logger:         logger,
			SegmentMetrics: replMetrics,
			Tracer:         tracer,
		})
		if err != nil {
			return fail(err)
		}
		sopts = append(sopts, httpapi.WithShardReplica(fol.SegmentStaleness, cfg.maxStaleness))
		a.follower = fol
		a.promote = func() {
			contextpref.SetRoleAll(a.healths, contextpref.RolePromoting)
			applied := make([]uint64, cfg.shards)
			for i := range applied {
				applied[i] = fol.AppliedSeqSegment(i)
			}
			logger.Warn("promoting: taking over as leader",
				"applied_seqs", applied, "was_following", cfg.follow)
			for i, j := range a.journals {
				dir.SetShardPersister(i, contextpref.NewJournalPersister(j))
			}
			contextpref.SetRoleAll(a.healths, contextpref.RoleLeader)
			logger.Info("promotion complete: serving mutations")
		}
	}
	if a.api, err = httpapi.NewMultiUser(dir, sopts...); err != nil {
		return fail(err)
	}
	return a, nil
}

// openStore opens one journal segment per shard under cfg.store and
// replays it into its shard (recoverShards, all shards in parallel),
// then gives each shard, in shard order, a health tracker: an I/O
// failure in shard i degrades only shard i, and each shard recovers on
// its own probe. A leader attaches each shard's persister; a follower
// leaves them detached until promotion, since the segment streams are
// the only writers. The journal instruments are shared — registration
// is idempotent — so cp_journal_* series aggregate across segments.
func (a *app) openStore(cfg config, dir *contextpref.Directory) error {
	shards, err := recoverShards(cfg.store, dir)
	if err != nil {
		return err
	}
	jm := contextpref.NewJournalMetrics(a.reg)
	for i, rs := range shards {
		j := rs.journal
		a.journals = append(a.journals, j)
		j.SetMetrics(jm)
		if rs.records > 0 {
			a.logger.Info("recovered shard journal records", "shard", i, "records", rs.records, "duration", rs.took)
		}
		h := contextpref.NewShardHealth(i)
		shard := i
		h.OnChange(func(degraded bool, cause error) {
			if degraded {
				a.logger.Error("shard degraded, serving read-only", "shard", shard, "cause", cause)
			} else {
				a.logger.Info("shard recovered, serving mutations again", "shard", shard)
			}
		})
		dir.SetShardHealth(i, h)
		if cfg.follow == "" {
			dir.SetShardPersister(i, contextpref.NewJournalPersister(j))
		} else {
			h.SetRole(contextpref.RoleFollower)
		}
		a.healths = append(a.healths, h)
	}
	contextpref.RegisterShardHealthTelemetry(a.healths, a.reg)
	a.compactor, err = contextpref.NewStaggeredCompactor(dir, a.journals, a.reg)
	return err
}

// recoveredShard is one shard's journal segment, opened and replayed.
type recoveredShard struct {
	journal *journal.Journal
	records int           // records replayed
	took    time.Duration // journal scan plus replay
}

// recoverShards opens every shard's journal segment under store and
// replays it into its shard, each shard in its own goroutine and at
// most GOMAXPROCS at a time: shards share nothing at replay. It returns
// once every goroutine has finished. On failure it closes every
// journal that opened and returns the lowest-numbered failing shard's
// error, so the error does not depend on scheduling.
func recoverShards(store string, dir *contextpref.Directory) ([]recoveredShard, error) {
	out := make([]recoveredShard, dir.NumShards())
	errs := make([]error, len(out))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = recoverShard(store, dir, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, rs := range out {
				if rs.journal != nil {
					rs.journal.Close()
				}
			}
			return nil, err
		}
	}
	return out, nil
}

// recoverShard opens one shard's journal segment and replays it batch
// by batch as the segment is scanned: neither the segment's text nor a
// list of its records is ever held whole. No journal is returned when
// the scan or the replay fails.
func recoverShard(store string, dir *contextpref.Directory, i int) (recoveredShard, error) {
	start := time.Now()
	rp, err := dir.ShardReplayer(i)
	if err != nil {
		return recoveredShard{}, err
	}
	// Replay before attaching the persister, or replay would re-journal
	// its own input.
	var replayErr error
	j, err := journal.OpenStream(faultfs.OS{}, filepath.Join(store, journal.ShardDir(i)), func(recs []journal.Record) error {
		replayErr = rp.Apply(recs)
		return replayErr
	})
	if replayErr != nil {
		return recoveredShard{}, fmt.Errorf("replaying shard %d store: %w", i, replayErr)
	}
	if err != nil {
		return recoveredShard{}, fmt.Errorf("opening shard %d store: %w", i, err)
	}
	return recoveredShard{journal: j, records: rp.Records(), took: time.Since(start)}, nil
}
