package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of load connections: the benchmark host has two
// cores, and load comes from one process with at most nproc
// connections.
const conns = 2

// sender performs ops against one server, each load connection over its
// own keep-alive client limited to a single TCP connection.
type sender struct {
	in      *inputs
	base    string // "http://127.0.0.1:port"
	clients []*http.Client
	toggles toggles
}

func newSender(in *inputs, n int) *sender {
	s := &sender{in: in, toggles: make(toggles, in.w.users)}
	for i := 0; i < n; i++ {
		s.clients = append(s.clients, &http.Client{
			Timeout: 10 * time.Second,
			// No Proxy: load stays on loopback whatever the environment says.
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	return s
}

// target points the sender at a (new) server, dropping connections to
// the previous one.
func (s *sender) target(base string) {
	s.base = base
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// call sends one request on connection c and returns the body of a 2xx
// answer; any other status is an error carrying the body.
func (s *sender) call(c int, method, target string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, target, err)
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: status %d: %s", method, target, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// do resolves a write against the toggle model and sends the op on
// connection c. It returns the resolved op and the 2xx body. The model
// records a write only once the server has acknowledged it, so a failed
// write leaves model and server in agreement.
func (s *sender) do(c int, o op) (op, []byte, error) {
	o = s.toggles.resolve(o)
	method, target, body := s.in.request(o)
	b, err := s.call(c, method, target, body)
	if err == nil {
		s.toggles.commit(o)
	}
	return o, b, err
}

// send is do without the body, the shape the load loops use.
func (s *sender) send(c int, o op) (opKind, error) {
	o, _, err := s.do(c, o)
	return o.kind, err
}

// sample is one open-loop op, its times measured from the phase start.
type sample struct {
	kind       opKind // as sent (writes resolved)
	due        time.Duration
	dispatched time.Duration
	done       time.Duration
	err        error
}

// latency is the op's response time measured from when it was due.
func (s sample) latency() time.Duration { return s.done - s.due }

// openResult is the outcome of an open-loop phase.
type openResult struct {
	start      time.Time // sample times are measured from here
	samples    []sample
	backlogMax int // most ops dispatched but not yet answered, seen at any dispatch
}

// dueAt is the open-loop schedule: op i is due i/rate after the start.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// openLoop offers ops on a fixed schedule. One dispatcher hands every
// op that is due to the connection owning its user (owner), without
// waiting for earlier answers; latency runs from the due time, so a
// stall charges its wait to every op scheduled behind it instead of
// silently delaying their sends (coordinated omission).
func openLoop(ops []op, rate float64, owner []int, n int, send func(c int, o op) (opKind, error)) openResult {
	samples := make([]sample, len(ops))
	queues := make([]chan int, n)
	for c := range queues {
		queues[c] = make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	}
	var answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range queues {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queues[c] {
				kind, err := send(c, ops[i])
				samples[i].kind, samples[i].err = kind, err
				samples[i].done = time.Since(start)
				answered.Add(1)
			}
		}(c)
	}
	res := openResult{start: start}
	for i, o := range ops {
		due := dueAt(i, rate)
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		samples[i].due = due
		samples[i].dispatched = time.Since(start)
		if b := i + 1 - int(answered.Load()); b > res.backlogMax {
			res.backlogMax = b
		}
		queues[owner[o.user]] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	res.samples = samples
	return res
}

// closedResult is the outcome of a closed-loop phase.
type closedResult struct {
	completed int             // ops answered 2xx before the deadline
	doneAt    []time.Duration // when each of them was answered, from the phase start
	attempted int
	failed    int
	firstErr  error
}

// throughput is the median, over the whole one-second windows of a
// phase of length d (or the phase itself, if shorter), of the ops per
// second answered in each window. One hiccup of a shared host moves one
// window, not the result.
func throughput(doneAt []time.Duration, d time.Duration) float64 {
	n, size := int(d/time.Second), time.Second
	if n == 0 {
		n, size = 1, d
	}
	counts := make([]float64, n)
	for _, t := range doneAt {
		if i := int(t / size); i < n {
			counts[i]++
		}
	}
	return median(counts) / size.Seconds()
}

// closedLoop runs one client per connection that sends its next op only
// after the previous one was answered, for d. next[c] draws connection
// c's ops; it is only called from that connection's goroutine.
func closedLoop(d time.Duration, next []func() op, send func(c int, o op) (opKind, error)) closedResult {
	results := make([]closedResult, len(next))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for time.Now().Before(deadline) {
				_, err := send(c, next[c]())
				r.attempted++
				switch {
				case err != nil:
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
				default:
					if now := time.Now(); now.Before(deadline) {
						r.completed++
						r.doneAt = append(r.doneAt, now.Sub(start))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var total closedResult
	for _, r := range results {
		total.completed += r.completed
		total.doneAt = append(total.doneAt, r.doneAt...)
		total.attempted += r.attempted
		total.failed += r.failed
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
	}
	return total
}

// failures reports the failed ops of a run's load phases. Any failure
// refuses the run: latencies over the ops that succeeded would flatter a
// server that sheds load or times out.
func failures(open openResult, closed ...closedResult) error {
	failed, attempted := 0, len(open.samples)
	var first error
	for _, c := range closed {
		failed += c.failed
		attempted += c.attempted
		if first == nil {
			first = c.firstErr
		}
	}
	for _, s := range open.samples {
		if s.err != nil {
			failed++
			if first == nil {
				first = s.err
			}
		}
	}
	if failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d load ops failed; first: %w", failed, attempted, first)
}

// quantile returns the q-quantile (0..1) of xs by nearest rank; 0 for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
