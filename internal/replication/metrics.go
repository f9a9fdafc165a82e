package replication

import "contextpref/internal/telemetry"

// Metrics are one segment stream's replication instruments
// (cp_replication_shard_*{shard="i"}); see
// contextpref.NewShardedReplicationMetrics for the registration site.
// All fields are nil-safe, so a nil *Metrics (or any nil field)
// disables telemetry without conditional wiring.
type Metrics struct {
	// Lag reports the follower segment's current staleness in seconds:
	// how long since it last confirmed it held everything the leader
	// had announced (cp_replication_shard_lag_seconds gauge).
	Lag *telemetry.Gauge
	// Shipped counts records the leader handed to follower sessions
	// (cp_replication_shard_records_total{direction="shipped"}).
	Shipped *telemetry.Counter
	// Applied counts records the follower durably applied
	// (cp_replication_shard_records_total{direction="applied"}).
	Applied *telemetry.Counter
	// Reconnects counts follower session re-establishments after a
	// transport fault (cp_replication_shard_reconnects_total).
	Reconnects *telemetry.Counter
	// SnapshotBytes reports the size of the last snapshot shipped or
	// installed for bootstrap (cp_replication_shard_snapshot_bytes
	// gauge).
	SnapshotBytes *telemetry.Gauge
}
