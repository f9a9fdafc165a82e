package httpapi

// Admission control: the per-user token-bucket rate limiter and
// the deadline-aware queue admission in front of the inflight
// semaphore. Together with the request timeout (WithRequestTimeout)
// they bound what one request — and one user — can cost the server:
//
//   - the rate limiter rejects a user's excess request rate on arrival
//     with 429 "rate_limited" before any work happens;
//   - admission to the inflight semaphore is deadline-aware: a request
//     whose estimated queue wait already exceeds its remaining deadline
//     is rejected immediately with 503 "shed" instead of queueing,
//     doing the work, and timing out anyway; a request that does queue
//     and sees its deadline fire before a slot frees answers 503
//     "deadline" without having done any work.
//
// Both paths answer before the handler runs, so overload converts into
// cheap structured errors instead of long queues.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// WithRequestTimeout enforces a server-side deadline on every non-probe
// request: the request context is given the deadline, every evaluation
// loop underneath (profile-tree resolution, relation scans) checks it
// cooperatively, and a request that exceeds it answers a structured
// 503 {"code":"deadline"} with a Retry-After hint. d <= 0 disables the
// server deadline (client disconnects still cancel the context).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.reqTimeout = d
		}
	}
}

// WithRateLimit bounds each user to rps requests per second with the
// given burst capacity (burst <= 0 defaults to the ceiling of rps,
// minimum 1). A request is charged to the user it is served as: the
// ?user query parameter, else "default". No header chooses the bucket,
// since nothing authenticates one. A user over its budget answers 429
// {"code":"rate_limited"} with a Retry-After hint and costs the server
// only the bucket lookup. rps <= 0 disables rate limiting.
func WithRateLimit(rps float64, burst int) ServerOption {
	return func(s *Server) {
		if rps > 0 {
			s.limiter = newRateLimiter(rps, burst)
		}
	}
}

// maxRateKeys bounds the rate limiter's bucket map: when exceeded,
// stale (fully refilled) buckets are swept. A key that was swept and
// returns simply starts from a full bucket again, so the bound costs
// accuracy only for keys idle long enough to deserve it.
const maxRateKeys = 8192

// tokenBucket is one key's budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a keyed token-bucket limiter. All state is behind one
// mutex: the critical section is a map lookup and a few floating-point
// operations, far cheaper than the request it gates.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens added per second
	burst   float64 // bucket capacity
	buckets map[string]*tokenBucket
	now     func() time.Time // injectable for tests
}

// newRateLimiter builds a limiter; burst <= 0 defaults to ceil(rate)
// with a minimum of 1.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, math.Ceil(rate))
	}
	return &rateLimiter{
		rate:    rate,
		burst:   b,
		buckets: make(map[string]*tokenBucket),
		now:     time.Now,
	}
}

// allow reports whether the key may proceed, consuming one token if so.
// When denied, retryAfter is the time until the bucket holds one token
// again, rounded up to a whole second for the Retry-After header.
func (rl *rateLimiter) allow(key string) (retryAfter time.Duration, ok bool) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b, exists := rl.buckets[key]
	if !exists {
		if len(rl.buckets) >= maxRateKeys {
			rl.sweepLocked(now)
		}
		b = &tokenBucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	} else {
		b.tokens = math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
	return wait, false
}

// sweepLocked drops buckets that have fully refilled — their key has
// been idle at least burst/rate seconds and loses nothing by starting
// fresh. Called with the lock held, only when the map is at capacity.
func (rl *rateLimiter) sweepLocked(now time.Time) {
	for k, b := range rl.buckets {
		if math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate) >= rl.burst {
			delete(rl.buckets, k)
		}
	}
}

// rateKey attributes a request to a rate-limit bucket: the user the
// request is served as.
func rateKey(r *http.Request) string {
	return userOf(r)
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, minimum 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// observeService folds a completed request's service time into the
// exponentially weighted moving average the queue-wait estimate uses.
func (s *Server) observeService(elapsed time.Duration) {
	const alpha = 0.2
	sec := elapsed.Seconds()
	for {
		old := s.ewmaBits.Load()
		cur := math.Float64frombits(old)
		next := sec
		if old != 0 {
			next = (1-alpha)*cur + alpha*sec
		}
		if s.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// estimateQueueWait predicts how long a newly queued request would wait
// for an inflight slot: the requests already queued ahead of it (plus
// itself) divided by the drain rate, which is capacity slots retiring
// every EWMA service time. Zero until the first request completes.
func (s *Server) estimateQueueWait() time.Duration {
	ewma := math.Float64frombits(s.ewmaBits.Load())
	if ewma <= 0 || s.sem == nil {
		return 0
	}
	waiters := float64(s.queued.Load() + 1)
	return time.Duration(waiters * ewma / float64(cap(s.sem)) * float64(time.Second))
}

// admit acquires an inflight slot for the request, answering the
// structured rejection itself when admission fails. ok reports whether
// a slot was acquired (the caller must release it).
//
// Without a request deadline the behavior is the pre-deadline one:
// a full semaphore sheds immediately with 503 "overloaded". With a
// deadline, admission is deadline-aware: already-expired deadlines
// answer "deadline" on arrival, a predicted queue wait beyond the
// remaining deadline answers "shed" on arrival (the work would time
// out anyway — rejecting now costs nothing), and a request that queues
// answers "deadline" if the deadline fires before a slot frees.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (ok bool) {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	ctx := r.Context()
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline {
		s.metrics.shedded()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "overloaded",
			fmt.Errorf("httpapi: server overloaded, retry later"))
		return false
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		s.writeCtxError(w, fmt.Errorf("httpapi: deadline expired on arrival: %w", ctx.Err()))
		return false
	}
	if est := s.estimateQueueWait(); est > remaining {
		s.metrics.shedded()
		w.Header().Set("Retry-After", retryAfterSeconds(est))
		writeError(w, http.StatusServiceUnavailable, "shed",
			fmt.Errorf("httpapi: estimated queue wait %v exceeds remaining deadline %v",
				est.Round(time.Millisecond), remaining.Round(time.Millisecond)))
		return false
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		s.writeCtxError(w, fmt.Errorf("httpapi: deadline fired while queued for admission: %w", ctx.Err()))
		return false
	}
}
