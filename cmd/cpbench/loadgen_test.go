package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tiny shrinks a workload to test size, keeping its shape: the same op
// mix, skew, sharding and users-to-resident ratio.
func tiny(w workload) workload {
	w.users = max(2, w.users/16)
	w.maxResident /= 16
	w.prefs = min(w.prefs, 60)
	w.pois = 100
	w.poolStates = min(w.poolStates, 256)
	w.rate = 200
	w.traceOps = 400
	return w
}

func tinyInputs(t *testing.T, name string, seed int64) *inputs {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	in, err := generate(tiny(w), seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The open-loop schedule — which ops, and when each is due — is a pure
// function of the seed, the rate and the duration.
func TestScheduleIsPureFunctionOfSeedRateDuration(t *testing.T) {
	schedule := func(seed int64, rate float64, d time.Duration) ([]op, []time.Duration) {
		in := tinyInputs(t, "write-mix", seed)
		ops, err := plan(in, streamSeed(seed, streamOpen), int(rate*d.Seconds()))
		if err != nil {
			t.Fatal(err)
		}
		due := make([]time.Duration, len(ops))
		for i := range ops {
			due[i] = dueAt(i, rate)
		}
		return ops, due
	}
	ops1, due1 := schedule(11, 500, 2*time.Second)
	ops2, due2 := schedule(11, 500, 2*time.Second)
	if !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(due1, due2) {
		t.Fatal("same seed, rate and duration gave different schedules")
	}
	if len(ops1) != 1000 || due1[999] != 1998*time.Millisecond {
		t.Fatalf("500 ops/s for 2s: %d ops, last due at %v; want 1000 ops, last at 1.998s", len(ops1), due1[len(due1)-1])
	}
	if ops3, _ := schedule(12, 500, 2*time.Second); reflect.DeepEqual(ops1, ops3) {
		t.Fatal("different seeds gave the same op stream")
	}
	writes := 0
	for _, o := range ops1 {
		if o.kind.isWrite() {
			writes++
		}
	}
	if share := float64(writes) / float64(len(ops1)); share < 0.2 || share > 0.3 {
		t.Fatalf("write-mix write share %.3f, want about 0.25", share)
	}
}

// A server that stalls once for 200 ms must charge the stall to every
// op that was due during it: latency runs from the due time, not from
// the delayed send.
func TestOpenLoopReportsStallToEveryOpDueDuringIt(t *testing.T) {
	var mu sync.Mutex
	var stallStart, stallEnd time.Time
	begin := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // every request queues behind a stall
		defer mu.Unlock()
		if stallStart.IsZero() && time.Since(begin) > 150*time.Millisecond {
			stallStart = time.Now()
			time.Sleep(200 * time.Millisecond)
			stallEnd = time.Now()
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	in := tinyInputs(t, "cold-rank", 3)
	ops, err := plan(in, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	s := newSender(in, conns)
	s.target(srv.URL)
	res := openLoop(ops, 500, in.partition(conns), conns, s.send)
	mu.Lock()
	defer mu.Unlock()
	if stallStart.IsZero() {
		t.Fatal("the server never stalled")
	}
	covered := 0
	for i, smp := range res.samples {
		if smp.err != nil {
			t.Fatalf("op %d: %v", i, smp.err)
		}
		due := res.start.Add(smp.due)
		if due.Before(stallStart) || !due.Before(stallEnd) {
			continue
		}
		covered++
		if want := stallEnd.Sub(due); smp.latency() < want-time.Millisecond {
			t.Errorf("op %d due %v into the stall reports %v; the stall alone cost it %v",
				i, due.Sub(stallStart), smp.latency(), want)
		}
	}
	if covered < 50 {
		t.Fatalf("only %d ops were due during the 200ms stall at 500 ops/s", covered)
	}
}

// The closed loop keeps at most one op in flight per connection, and
// the load uses no more than two connections.
func TestClosedLoopNeverExceedsTwoInFlight(t *testing.T) {
	var inflight, peak atomic.Int64
	var mu sync.Mutex
	remotes := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		mu.Lock()
		remotes[r.RemoteAddr] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	in := tinyInputs(t, "hot-cache", 5)
	s := newSender(in, conns)
	s.target(srv.URL)
	next := make([]func() op, conns)
	for c := range next {
		g, err := newGenerator(in, int64(c), nil)
		if err != nil {
			t.Fatal(err)
		}
		next[c] = g.next
	}
	res := closedLoop(300*time.Millisecond, next, s.send)
	if res.failed != 0 || res.completed < 20 {
		t.Fatalf("closed loop: %+v", res)
	}
	if p := peak.Load(); p > 2 || p < 1 {
		t.Fatalf("peak in-flight ops %d, want 1..2", p)
	}
	if len(remotes) > 2 {
		t.Fatalf("load used %d connections, want at most 2", len(remotes))
	}
}

// A server that sheds some load with 503s fails the run, in either loop,
// and a write it refused leaves the toggle model where it was: the next
// toggle of that preference sends the same method again.
func TestShedOpsFailTheRunAndKeepTheWriteModel(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%7 == 0 {
			http.Error(w, `{"error":"overloaded","code":"shed"}`, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	in := tinyInputs(t, "write-mix", 9)
	s := newSender(in, conns)
	s.target(srv.URL)
	ops, err := plan(in, 9, 700)
	if err != nil {
		t.Fatal(err)
	}
	open := openLoop(ops, 2000, in.partition(conns), conns, s.send)
	if err := failures(open); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("open loop against a shedding server: failures = %v, want a 503", err)
	}
	// Replay the stream, user by user in send order: every write must
	// have been sent as the toggle model of acknowledged writes said.
	model := make(toggles, in.w.users)
	refused := 0
	for i, o := range ops {
		if !o.kind.isWrite() {
			continue
		}
		smp := open.samples[i]
		if want := model.resolve(o).kind; smp.kind != want {
			t.Fatalf("op %d sent as %v, want %v", i, smp.kind, want)
		}
		if smp.err != nil {
			refused++
			continue
		}
		model.commit(model.resolve(o))
	}
	if refused == 0 {
		t.Fatal("no write was refused; the test exercises nothing")
	}
	if !reflect.DeepEqual(model, s.toggles) {
		t.Fatal("the sender's toggle model counts writes the server refused")
	}

	g, err := newGenerator(in, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	closed := closedLoop(100*time.Millisecond, []func() op{g.next}, s.send)
	if err := failures(openResult{}, closed); closed.failed == 0 || err == nil {
		t.Fatalf("closed loop against a shedding server: %d failed, failures = %v", closed.failed, err)
	}
}

func TestStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	// Three whole windows answering 10, 100 and 12 ops: one burst does
	// not move the median; the partial fourth window is ignored.
	var done []time.Duration
	for w, n := range []int{10, 100, 12, 50} {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := throughput(done, 3500*time.Millisecond); got != 12 {
		t.Errorf("throughput = %v ops/s, want 12", got)
	}
	if got := throughput(done[:5], 500*time.Millisecond); got != 10 {
		t.Errorf("throughput over a half-second phase = %v ops/s, want 10", got)
	}
}
