package contextpref

// This file is the degraded-mode state machine: a Health tracker that
// System/SafeSystem/Directory consult before mutating and mark after a
// persistence failure. While degraded the store is read-only — reads
// and context resolution keep serving from memory, mutations fail fast
// with a *DegradedError (no journal I/O attempted) — until a probe of
// the underlying store succeeds and flips the state back to healthy.
// All methods are nil-safe no-ops, so embedders that never attach a
// Health pay nothing.
//
// In a sharded directory every shard owns its own tracker (see
// NewShardHealth): a persistence failure degrades only the shard it
// happened in, the DegradedError names that shard, and each shard runs
// its own recovery probe against its own journal segment.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"contextpref/internal/telemetry"
)

// DegradedError reports a mutation rejected because the store is in
// degraded (read-only) mode. Err is the persistence failure that caused
// the degradation; Since is when it happened. HTTP servers map it to
// 503 with a Retry-After hint.
type DegradedError struct {
	// Since is when the store entered degraded mode.
	Since time.Time
	// Err is the persistence failure that triggered the transition.
	Err error
	// Shard is the index of the degraded shard in a sharded directory,
	// or -1 when the whole store shares one fault domain.
	Shard int
}

// Error implements error.
func (e *DegradedError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("contextpref: shard %d degraded (read-only) since %s: %v",
			e.Shard, e.Since.Format(time.RFC3339), e.Err)
	}
	return fmt.Sprintf("contextpref: store degraded (read-only) since %s: %v",
		e.Since.Format(time.RFC3339), e.Err)
}

// Unwrap exposes the causing persistence failure to errors.Is/As.
func (e *DegradedError) Unwrap() error { return e.Err }

// Role is a node's replication role. The zero value is RoleLeader, so
// deployments that never replicate behave exactly as before.
type Role int

const (
	// RoleLeader accepts mutations and ships them to followers.
	RoleLeader Role = iota
	// RoleFollower serves read-only state tailed from a leader;
	// mutations are rejected with a *ReadOnlyError.
	RoleFollower
	// RolePromoting is the transition out of RoleFollower: the
	// replication stream has stopped but the node is not yet accepting
	// writes. Mutations are still rejected.
	RolePromoting
)

// String names the role for logs and readiness payloads.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "following"
	case RolePromoting:
		return "promoting"
	default:
		return "leader"
	}
}

// ReadOnlyError reports a mutation rejected because the node is a
// replication follower (or mid-promotion), not the leader. HTTP
// servers map it to 503 "read_only" with a Retry-After hint — the
// client should retry against the leader, or here after a promotion.
type ReadOnlyError struct {
	// Role is the rejecting node's role (RoleFollower or
	// RolePromoting).
	Role Role
}

// Error implements error.
func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("contextpref: store is read-only: node is %s, not the leader", e.Role)
}

// Health tracks whether the persistence layer is trusted. It starts
// healthy; a persist failure flips it to degraded, and a successful
// probe (see Run) flips it back. It is safe for concurrent use, and a
// nil *Health is always healthy.
type Health struct {
	mu       sync.Mutex
	degraded bool
	role     Role
	since    time.Time
	cause    error
	shard    int
	onChange []func(degraded bool, cause error)
	// wake is signalled (non-blocking, capacity 1) on the transition to
	// degraded, so Run starts probing immediately instead of spinning a
	// timer while healthy.
	wake chan struct{}

	// Telemetry handles, attached via RegisterShardHealthTelemetry;
	// nil handles are no-ops.
	transDegraded *telemetry.Counter
	transHealthy  *telemetry.Counter
	probeOK       *telemetry.Counter
	probeFail     *telemetry.Counter
}

// NewHealth creates a tracker in the healthy state for a store with a
// single fault domain.
func NewHealth() *Health {
	return &Health{shard: -1, wake: make(chan struct{}, 1)}
}

// NewShardHealth creates a tracker owned by one shard of a sharded
// directory; the shard index is carried on every DegradedError it
// issues, so clients and logs can name the failing fault domain.
func NewShardHealth(shard int) *Health {
	h := NewHealth()
	h.shard = shard
	return h
}

// Shard returns the owning shard's index, or -1 for a whole-store
// tracker (including nil).
func (h *Health) Shard() int {
	if h == nil {
		return -1
	}
	return h.shard
}

// OnChange registers a callback invoked (outside the tracker's lock) on
// every state transition — for logging and per-shard gauges. Callbacks
// accumulate: every registered callback fires on every transition, in
// registration order.
func (h *Health) OnChange(f func(degraded bool, cause error)) {
	if h == nil || f == nil {
		return
	}
	h.mu.Lock()
	h.onChange = append(h.onChange, f)
	h.mu.Unlock()
}

// Degraded reports whether the store is in degraded (read-only) mode.
func (h *Health) Degraded() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.degraded
}

// Role returns the node's replication role; a nil tracker is a
// leader, as is any tracker never told otherwise.
func (h *Health) Role() Role {
	if h == nil {
		return RoleLeader
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.role
}

// SetRole sets the replication role. The serving binary flips it to
// RoleFollower at startup in follower mode, to RolePromoting when the
// takeover starts, and to RoleLeader once the node owns the journal.
func (h *Health) SetRole(r Role) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.role = r
	h.mu.Unlock()
}

// SetRoleAll flips every tracker in hs to role r — a sharded node
// changes role as a whole (all shards follow, all shards promote),
// even though each shard's segment stream fails independently. Nil
// trackers are skipped.
func SetRoleAll(hs []*Health, r Role) {
	for _, h := range hs {
		h.SetRole(r)
	}
}

// Gate returns nil when the node is a healthy leader; mutation paths
// call it first so a rejected write fails fast without touching the
// journal. Degradation is reported ahead of role: a degraded follower
// is first of all degraded. The replication apply path does not come
// through here — followers graft leader batches via ReplayShard.
func (h *Health) Gate() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.degraded {
		return &DegradedError{Since: h.since, Err: h.cause, Shard: h.shard}
	}
	if h.role != RoleLeader {
		return &ReadOnlyError{Role: h.role}
	}
	return nil
}

// MarkDegraded transitions to degraded mode (idempotent; the first
// cause is kept) and returns the error mutations should surface.
func (h *Health) MarkDegraded(cause error) *DegradedError {
	if h == nil {
		return &DegradedError{Since: time.Now(), Err: cause, Shard: -1}
	}
	h.mu.Lock()
	var cbs []func(bool, error)
	if !h.degraded {
		h.degraded = true
		h.since = time.Now()
		h.cause = cause
		cbs = append(cbs, h.onChange...)
		h.transDegraded.Inc()
		if h.wake != nil {
			select {
			case h.wake <- struct{}{}:
			default: // a wakeup is already pending
			}
		}
	}
	err := &DegradedError{Since: h.since, Err: h.cause, Shard: h.shard}
	h.mu.Unlock()
	for _, cb := range cbs {
		cb(true, cause)
	}
	return err
}

// MarkHealthy transitions back to healthy (idempotent).
func (h *Health) MarkHealthy() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if !h.degraded {
		h.mu.Unlock()
		return
	}
	h.degraded = false
	h.since = time.Time{}
	h.cause = nil
	cbs := append([]func(bool, error){}, h.onChange...)
	h.transHealthy.Inc()
	h.mu.Unlock()
	for _, cb := range cbs {
		cb(false, nil)
	}
}

// fail marks the store degraded because of a persistence failure and
// returns the error the failing mutation should surface: the
// *DegradedError wrapping it, so callers see the read-only transition
// and errors.As still reaches the *PersistError underneath.
func (h *Health) fail(perr *PersistError) error {
	if h == nil {
		return perr
	}
	return h.MarkDegraded(perr)
}

// wakeCh returns the degraded-transition wakeup channel, creating it
// for trackers built as zero values.
func (h *Health) wakeCh() chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.wake == nil {
		h.wake = make(chan struct{}, 1)
	}
	return h.wake
}

// Run probes the store while degraded and flips back to healthy on the
// first success; while healthy it sleeps with no timer at all, woken
// by the degraded transition — so N per-shard probe goroutines on a
// healthy node cost nothing. The first probe after a degradation fires
// immediately; failed probes retry every interval. It blocks until ctx
// is cancelled — run it in a goroutine. probe must attempt a real
// durable write (e.g. journal.Probe) and return nil only when the
// store works again.
func (h *Health) Run(ctx context.Context, interval time.Duration, probe func() error) {
	if h == nil || probe == nil {
		return
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	wake := h.wakeCh()
	for {
		if !h.Degraded() {
			// Healthy: no ticker, no polling — block until the next
			// degradation (or shutdown). The wake signal is buffered, so
			// a transition between the check above and this select is
			// never lost.
			select {
			case <-ctx.Done():
				return
			case <-wake:
			}
			continue // re-check; recovery may have raced the wakeup
		}
		if err := probe(); err != nil {
			h.probeFail.Inc()
		} else {
			h.probeOK.Inc()
			h.MarkHealthy()
			continue
		}
		t := time.NewTimer(interval)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// SetHealth attaches a health tracker; subsequent mutations are gated
// on it and persistence failures mark it degraded. A nil tracker
// detaches (mutations then surface bare *PersistError again).
func (s *System) SetHealth(h *Health) { s.health = h }

// setHealth attaches the owning shard's health tracker under the write
// lock; on a parked handle it is kept aside and re-attached when the
// system materializes.
func (s *SafeSystem) setHealth(h *Health) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sys == nil {
		s.parkHealth = h
		return
	}
	s.sys.SetHealth(h)
}
