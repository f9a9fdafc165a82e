package httpapi

// Serving-layer observability: per-endpoint request metrics, the
// response recorder that captures status codes for them, and the
// structured request/slow-request/panic logging configuration. The
// middleware chain in ServeHTTP applies these around every request.

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"contextpref/internal/telemetry"
	"contextpref/internal/tracing"
)

// WithTelemetry reports serving metrics (cp_http_*) into the registry:
// per-endpoint request counts and latency, in-flight requests, shed
// requests, and recovered panics. A nil registry leaves telemetry
// disabled (the default): every hook degrades to a nil check.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) { s.metrics = newHTTPMetrics(reg) }
}

// WithLogger sets the structured logger for request, slow-request, and
// panic logs. The default is slog.Default(), which writes through the
// standard log package.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithSlowRequestThreshold enables the slow-request log: any request
// served in d or longer is logged at Warn level with its request ID,
// endpoint, status, and duration. d <= 0 disables it (the default).
func WithSlowRequestThreshold(d time.Duration) ServerOption {
	return func(s *Server) { s.slowThreshold = d }
}

// WithTracer attaches a span tracer: every non-probe request gets a
// root span named after its endpoint, an inbound W3C traceparent header
// is honored as the remote parent (a sampled remote forces retention),
// and the response carries a traceparent header so clients can quote
// the trace ID back. The request context threads the root span through
// the store, so resolution, query evaluation, and journal spans nest
// under it. A nil tracer leaves tracing disabled (the default).
func WithTracer(t *tracing.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// httpMetrics holds the serving-layer instruments. A nil *httpMetrics
// (telemetry disabled) makes every method a no-op.
type httpMetrics struct {
	requests    *telemetry.CounterVec   // endpoint, method, code
	latency     *telemetry.HistogramVec // endpoint
	inflight    *telemetry.Gauge
	shed        *telemetry.Counter
	panics      *telemetry.Counter
	timeouts    *telemetry.Counter
	rateLimits  *telemetry.Counter
	chaosInject *telemetry.CounterVec // kind
}

func newHTTPMetrics(reg *telemetry.Registry) *httpMetrics {
	if reg == nil {
		return nil
	}
	return &httpMetrics{
		requests: reg.CounterVec("cp_http_requests_total",
			"HTTP requests served, by endpoint, method, and status code.",
			"endpoint", "method", "code"),
		latency: reg.HistogramVec("cp_http_request_seconds",
			"HTTP request latency by endpoint.", telemetry.DefBuckets, "endpoint"),
		inflight: reg.Gauge("cp_http_inflight_requests",
			"HTTP requests currently being served."),
		shed: reg.Counter("cp_http_shed_total",
			"HTTP requests shed by admission control (overloaded or predicted to miss their deadline)."),
		panics: reg.Counter("cp_http_panics_total",
			"Handler panics recovered by the middleware."),
		timeouts: reg.Counter("cp_request_timeouts_total",
			"Requests answered with the structured deadline error (server deadline exceeded)."),
		rateLimits: reg.Counter("cp_rate_limited_total",
			"Requests rejected by the per-user token-bucket rate limiter."),
		chaosInject: reg.CounterVec("cp_chaos_injected_total",
			"Faults injected by the chaos middleware, by kind (latency, error).", "kind"),
	}
}

// begin marks a request in flight.
func (m *httpMetrics) begin() {
	if m != nil {
		m.inflight.Inc()
	}
}

// done records a finished request.
func (m *httpMetrics) done(endpoint, method string, code int, d time.Duration) {
	if m == nil {
		return
	}
	m.inflight.Dec()
	m.requests.With(endpoint, method, strconv.Itoa(code)).Inc()
	m.latency.With(endpoint).Observe(d.Seconds())
}

// shedded records a load-shed request.
func (m *httpMetrics) shedded() {
	if m != nil {
		m.shed.Inc()
	}
}

// panicked records a recovered handler panic.
func (m *httpMetrics) panicked() {
	if m != nil {
		m.panics.Inc()
	}
}

// timedOut records a request answered with the structured deadline
// error.
func (m *httpMetrics) timedOut() {
	if m != nil {
		m.timeouts.Inc()
	}
}

// rateLimited records a request rejected by the rate limiter.
func (m *httpMetrics) rateLimited() {
	if m != nil {
		m.rateLimits.Inc()
	}
}

// chaosInjected records one injected fault ("latency" or "error").
func (m *httpMetrics) chaosInjected(kind string) {
	if m != nil {
		m.chaosInject.With(kind).Inc()
	}
}

// endpointLabel maps a request path to a bounded metric label: the
// fixed route set of this API, with everything else folded into
// "other" so an URL-scanning client cannot explode label cardinality.
func endpointLabel(path string) string {
	switch path {
	case "/env", "/stats", "/preferences", "/query", "/resolve",
		"/healthz", "/readyz", "/users":
		return path
	}
	return "other"
}

// rootSpanName returns the root-span name for a bounded endpoint
// label. The names are constants so the traced hot path pays no
// per-request string concatenation.
func rootSpanName(endpoint string) string {
	switch endpoint {
	case "/env":
		return "http /env"
	case "/stats":
		return "http /stats"
	case "/preferences":
		return "http /preferences"
	case "/query":
		return "http /query"
	case "/resolve":
		return "http /resolve"
	case "/users":
		return "http /users"
	}
	return "http other"
}

// statusRecorder captures the status code and body size a handler
// writes, for metrics and the slow-request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }
