package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	// A run sets the server up at least setupMinReps times, and keeps
	// repeating until setupBudget is spent (at most setupMaxReps), so a
	// setup of tens of milliseconds — mostly process start — still gets
	// a steady median. The last server serves the load phases.
	setupMinReps = 5
	setupMaxReps = 40
	setupBudget  = 2 * time.Second
	// warmup is the untimed closed-loop phase that fills the query
	// caches before latency is measured (at most a quarter of the
	// measured time, for short runs).
	warmup = 2 * time.Second
	// oracleOps is the size of the sequential correctness pass.
	oracleOps = 300
)

// runE2E measures one workload against a live cpserver built at bin.
// The phases are: setup (timed, repeatedly), closed-loop warm-up,
// open-loop latency at the workload's rate for half of d, closed-loop
// capacity for the other half, and the oracle pass. A failed op in any
// phase fails the run.
func runE2E(work, bin string, w workload, seed int64, d time.Duration) (*result, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")
	if w.store {
		if err := writeStore(store, in); err != nil {
			return nil, err
		}
	}
	owner := in.partition(conns)
	s := newSender(in, conns)
	r := &result{workload: w.name}

	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	spent := 0.0
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || spent < setupBudget.Seconds()); rep++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		srv, err = startServer(bin, w.serverArgs(seed, store), filepath.Join(dir, fmt.Sprintf("cpserver-%d.log", rep)))
		if err != nil {
			return nil, err
		}
		s.target(srv.base)
		if err := srv.waitReady(s.clients[0], time.Minute); err != nil {
			return nil, err
		}
		if !w.store {
			if err := upload(s); err != nil {
				return nil, fmt.Errorf("uploading profiles: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[rep]
	}
	r.add("setup_s", median(setups), "s", len(setups))

	// The closed phases draw from one generator per connection, each
	// restricted to the users that connection owns.
	next := make([]func() op, conns)
	for c := range next {
		only := make([]bool, w.users)
		for u, o := range owner {
			only[u] = o == c
		}
		g, err := newGenerator(in, streamSeed(seed, streamClosed+c), only)
		if err != nil {
			return nil, err
		}
		next[c] = g.next
	}
	phase := d / 2
	warm := closedLoop(min(warmup, d/4), next, s.send)
	ops, err := plan(in, streamSeed(seed, streamOpen), int(w.rate*phase.Seconds()))
	if err != nil {
		return nil, err
	}
	open := openLoop(ops, w.rate, owner, conns, s.send)
	capacity := closedLoop(phase, next, s.send)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	if err := failures(open, warm, capacity); err != nil {
		return nil, err
	}
	r.attempted = warm.attempted + len(ops) + capacity.attempted + oracleOps
	var reads, writes, late []float64
	for _, smp := range open.samples {
		ms := float64(smp.latency()) / 1e6
		if smp.kind.isWrite() {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
		late = append(late, float64(smp.dispatched-smp.due)/1e6)
	}
	// Gated: the read latency at the fixed rate, and memory. Capacity,
	// p99 and write latency are printed beside them: on a shared 2-core
	// host they did not repeat within any usable bound (README.md).
	r.add("read_p50_ms", quantile(reads, 0.5), "ms", len(reads))
	r.add("read_p90_ms", quantile(reads, 0.9), "ms", len(reads))
	r.add("peak_rss_mb", rss, "MB", 1)
	r.info = append(r.info,
		fmt.Sprintf("%s setup_runs_s %v", w.name, setups),
		fmt.Sprintf("%s capacity_ops_s %g n=%d", w.name, throughput(capacity.doneAt, phase), capacity.completed),
		fmt.Sprintf("%s read_p99_ms %g n=%d", w.name, quantile(reads, 0.99), len(reads)),
		fmt.Sprintf("%s loadgen.offered_ops_s %g n=%d", w.name, w.rate, len(ops)),
		fmt.Sprintf("%s loadgen.late_p99_ms %g n=%d", w.name, quantile(late, 0.99), len(late)),
		fmt.Sprintf("%s loadgen.backlog_max %d", w.name, open.backlogMax))
	if len(writes) > 0 {
		r.info = append(r.info,
			fmt.Sprintf("%s write_p50_ms %g n=%d", w.name, quantile(writes, 0.5), len(writes)),
			fmt.Sprintf("%s write_p99_ms %g n=%d", w.name, quantile(writes, 0.99), len(writes)))
	}

	if err := oraclePass(s, in, seed); err != nil {
		return nil, err
	}
	r.correct = true
	return r, nil
}

// oraclePass sends oracleOps reads, alternating /query and /resolve, one
// at a time on one connection, and checks every answer against the
// oracle built from the writes the run made.
func oraclePass(s *sender, in *inputs, seed int64) error {
	or, err := newOracle(in, s.toggles)
	if err != nil {
		return err
	}
	g, err := newGenerator(in, streamSeed(seed, streamOracle), nil)
	if err != nil {
		return err
	}
	for i := 0; i < oracleOps; i++ {
		kind := opQuery
		if i%2 == 1 {
			kind = opResolve
		}
		o, body, err := s.do(0, g.read(kind))
		if err != nil {
			return fmt.Errorf("correctness pass: %w", err)
		}
		if err := or.check(o, body); err != nil {
			return fmt.Errorf("correctness pass: %w", err)
		}
	}
	return nil
}
