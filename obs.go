package contextpref

// This file wires the internal/telemetry registry into the library's
// hot paths: a System option that attaches the paper's resolution cost
// counters to the profile tree, a Directory option that tracks the
// per-user system population, and the metric constructors the serving
// binary shares (journal instruments). All registration is idempotent,
// so every per-user System in a Directory reports into the same
// counters; with no registry attached every hook is a nil-safe no-op
// and the library stays embeddable.

import (
	"runtime/debug"
	"strconv"

	"contextpref/internal/journal"
	"contextpref/internal/profiletree"
	"contextpref/internal/replication"
	"contextpref/internal/telemetry"
	"contextpref/internal/tracing"
)

// TelemetryRegistry is the metrics registry instrumented components
// report into; see internal/telemetry. A nil registry disables
// telemetry everywhere it is passed.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry creates an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// WithTelemetry attaches resolution cost counters (cp_resolve_*) to the
// system's profile tree. Passing the same registry to several systems —
// as a Directory does for its per-user systems — aggregates their cost
// into shared counters.
func WithTelemetry(reg *TelemetryRegistry) Option {
	return func(o *options) { o.telemetry = reg }
}

// resolveMetrics builds (or finds) the shared resolution counters.
func resolveMetrics(reg *TelemetryRegistry) *profiletree.Metrics {
	if reg == nil {
		return nil
	}
	return &profiletree.Metrics{
		Resolutions: reg.CounterVec("cp_resolve_total",
			"Context resolutions by outcome (hit = a covering state was found).", "outcome"),
		CellsVisited: reg.Counter("cp_resolve_cells_total",
			"Profile-tree cells accessed during context resolution (the paper's Section 5 cost metric)."),
		CandidatesFound: reg.Counter("cp_resolve_candidates_total",
			"Covering candidate states discovered during context resolution."),
		//cpvet:ignore metricnames cells-per-resolve distribution is unitless (cell accesses), not a timing
		CellsPerResolve: reg.Histogram("cp_resolve_cells",
			"Distribution of cells accessed per resolution.", telemetry.ExpBuckets(1, 2, 14)),
	}
}

// WithDirectoryTelemetry tracks the per-user system population
// (cp_directory_users gauge, created/dropped counters, per-shard
// cp_shard_* vectors) and forwards the registry to every per-user
// System, aggregating their resolution cost.
func WithDirectoryTelemetry(reg *TelemetryRegistry) DirectoryOption {
	return func(d *Directory) {
		if reg == nil {
			return
		}
		// initShards (which runs after all options) builds the per-shard
		// instruments from d.reg.
		d.reg = reg
		d.opts = append(d.opts, WithTelemetry(reg))
		d.usersCreated = reg.Counter("cp_directory_users_created_total",
			"User profiles created in the directory.")
		d.usersDropped = reg.Counter("cp_directory_users_dropped_total",
			"User profiles dropped from the directory.")
		reg.GaugeFunc("cp_directory_users",
			"User profiles known to the directory (resident or parked).", func() float64 {
				return float64(d.NumUsers())
			})
		reg.GaugeFunc("cp_directory_resident_users",
			"Per-user systems currently materialized in memory.", func() float64 {
				return float64(d.ResidentUsers())
			})
	}
}

// NewJournalMetrics builds (or finds) the durability instruments
// (cp_journal_*) for journal.SetMetrics. A nil registry returns nil,
// which the journal treats as "telemetry disabled".
func NewJournalMetrics(reg *TelemetryRegistry) *journal.Metrics {
	if reg == nil {
		return nil
	}
	return &journal.Metrics{
		AppendSeconds: reg.Histogram("cp_journal_append_seconds",
			"Journal append batch latency (marshal + write + fsync).", telemetry.IOBuckets),
		FsyncSeconds: reg.Histogram("cp_journal_fsync_seconds",
			"Journal fsync latency.", telemetry.IOBuckets),
		AppendBytes: reg.Counter("cp_journal_append_bytes_total",
			"Bytes appended to the journal."),
		AppendRecords: reg.Counter("cp_journal_append_records_total",
			"Records appended to the journal."),
		SnapshotSeconds: reg.Histogram("cp_journal_snapshot_seconds",
			"Journal compaction latency (snapshot write + rename + truncate).", telemetry.DefBuckets),
		SnapshotBytes: reg.Gauge("cp_journal_snapshot_bytes",
			"Size of the last written snapshot."),
		SizeBytes: reg.Gauge("cp_journal_size_bytes",
			"Current journal file size; compaction resets it to the header."),
		AppendRetries: reg.Counter("cp_journal_append_retries_total",
			"Journal append attempts retried after a transient write/fsync failure."),
		AppendRollbacks: reg.Counter("cp_journal_append_rollbacks_total",
			"Journal truncations rolling a torn append back to the last durable offset."),
	}
}

// NewShardedReplicationMetrics builds one replication instrument set
// per journal segment, as cp_replication_shard_* vectors carrying the
// bounded "shard" label (the numeric segment index, fixed at store
// creation): the per-segment streams are independent fault domains, so
// their lag, traffic, and reconnect churn must be attributable per
// shard. Index-aligned with the directory's shard numbering; pass the
// result as SegmentMetrics to the replication Leader/Follower configs.
// A nil registry returns nil, which the replication package treats as
// "telemetry disabled".
func NewShardedReplicationMetrics(reg *TelemetryRegistry, shards int) []*replication.Metrics {
	if reg == nil {
		return nil
	}
	lag := reg.GaugeVec("cp_replication_shard_lag_seconds",
		"Per-shard follower staleness: seconds since the segment stream last confirmed it held everything the leader announced.",
		"shard")
	records := reg.CounterVec("cp_replication_shard_records_total",
		"Journal records moved by one shard's segment stream, by direction (shipped by the leader, applied by the follower).",
		"direction", "shard")
	reconnects := reg.CounterVec("cp_replication_shard_reconnects_total",
		"Segment-stream replication sessions re-established after a transport fault, per shard.",
		"shard")
	snapshotBytes := reg.GaugeVec("cp_replication_shard_snapshot_bytes",
		"Size of the last bootstrap snapshot shipped or installed on one shard's segment stream.",
		"shard")
	ms := make([]*replication.Metrics, shards)
	for i := range ms {
		s := strconv.Itoa(i)
		ms[i] = &replication.Metrics{
			Lag:           lag.With(s),
			Shipped:       records.With("shipped", s),
			Applied:       records.With("applied", s),
			Reconnects:    reconnects.With(s),
			SnapshotBytes: snapshotBytes.With(s),
		}
	}
	return ms
}

// NewTraceMetrics builds the tracing instruments (cp_trace_*): spans
// started, completed traces retained by reason, and traces dropped by
// sampling. A nil registry returns nil, which the tracer treats as
// "telemetry disabled".
func NewTraceMetrics(reg *TelemetryRegistry) *tracing.Metrics {
	if reg == nil {
		return nil
	}
	retained := reg.CounterVec("cp_trace_retained_total",
		"Completed traces retained in the trace ring, by reason (slow, error, sampled).",
		"reason")
	return &tracing.Metrics{
		SpansStarted: reg.Counter("cp_trace_spans_total",
			"Spans started by the tracer."),
		RetainedSlow:    retained.With("slow"),
		RetainedError:   retained.With("error"),
		RetainedSampled: retained.With("sampled"),
		Dropped: reg.Counter("cp_trace_dropped_total",
			"Healthy completed traces discarded by head sampling."),
	}
}

// RegisterBuildInfo exports the cp_build_info gauge: constant 1, with
// the Go toolchain version and the VCS revision the binary was built
// from as labels — the standard join key for correlating a scrape with
// a deploy. Unknown fields (e.g. a test binary built outside VCS)
// render as "unknown". A nil registry is a no-op.
func RegisterBuildInfo(reg *TelemetryRegistry) {
	if reg == nil {
		return
	}
	goVersion, revision := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	reg.GaugeVec("cp_build_info",
		"Build metadata: constant 1 labeled with the Go version and VCS revision.",
		"go_version", "vcs_revision").
		With(goVersion, revision).Set(1)
}

// RegisterShardHealthTelemetry attaches the degraded-mode instruments
// to a directory's per-shard trackers (as returned by ShardHealths):
// the shared cp_health_* series aggregate across shards — the degraded
// gauge reads 1 while any shard is degraded, transitions by target
// state and probe outcomes sum — and cp_shard_degraded breaks the
// state out per shard. A nil registry is a no-op; nil trackers are
// skipped.
func RegisterShardHealthTelemetry(hs []*Health, reg *TelemetryRegistry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cp_health_degraded",
		"1 while the store (any shard) is degraded (read-only), 0 while healthy.", func() float64 {
			for _, h := range hs {
				if h.Degraded() {
					return 1
				}
			}
			return 0
		})
	trans := reg.CounterVec("cp_health_transitions_total",
		"Health state transitions by target state.", "to")
	probes := reg.CounterVec("cp_health_probe_total",
		"Store probe attempts while degraded, by outcome.", "outcome")
	shardG := reg.GaugeVec("cp_shard_degraded",
		"1 while the shard is degraded (read-only), 0 while healthy.", "shard")
	for _, h := range hs {
		if h == nil {
			continue
		}
		h.mu.Lock()
		h.transDegraded = trans.With("degraded")
		h.transHealthy = trans.With("healthy")
		h.probeOK = probes.With("ok")
		h.probeFail = probes.With("fail")
		h.mu.Unlock()
		if h.Shard() < 0 {
			continue
		}
		g := shardG.With(strconv.Itoa(h.Shard()))
		if h.Degraded() {
			g.Set(1)
		} else {
			g.Set(0)
		}
		h.OnChange(func(degraded bool, _ error) {
			if degraded {
				g.Set(1)
			} else {
				g.Set(0)
			}
		})
	}
}
