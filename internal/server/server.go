// Package server exposes the simulator's engines — autotune planning,
// collective simulation, training-iteration simulation — as a JSON HTTP
// service with production admission control: a bounded worker pool with
// load shedding, per-request deadlines that cancel the simulation itself
// (via des cancellation checkpoints), singleflight collapsing of identical
// in-flight requests, an LRU response cache, and graceful drain.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ccube/internal/des"
	"ccube/internal/metrics"
)

// Config tunes the service; zero values take the defaults below.
type Config struct {
	// Workers is the number of simulations allowed to run concurrently.
	Workers int
	// QueueDepth bounds how many requests may wait for a worker; anything
	// beyond Workers+QueueDepth is shed with 429. Zero takes the default;
	// negative means no queue at all (shed as soon as workers are busy).
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms.
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms.
	MaxTimeout time.Duration
	// MaxBodyBytes caps request body size (413 beyond it).
	MaxBodyBytes int64
	// CacheSize is the response-cache capacity in entries. Zero takes the
	// default; negative disables the cache.
	CacheSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// AccessLog, when non-nil, receives one structured line per request.
	AccessLog io.Writer
}

// Defaults for zero Config fields.
const (
	DefaultWorkers      = 4
	DefaultQueueDepth   = 64
	DefaultTimeoutDur   = 30 * time.Second
	DefaultMaxTimeout   = 2 * time.Minute
	DefaultMaxBodyBytes = 1 << 20
	DefaultCacheSize    = 256
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = DefaultTimeoutDur
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = DefaultMaxTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	return c
}

// Server is the service instance. Create with New; serve via Handler.
type Server struct {
	cfg    Config
	adm    *admission
	cache  *respCache
	flight *flightGroup
	topos  topoCache
	start  time.Time
	reqSeq atomic.Uint64
	mux    *http.ServeMux

	// drain state: draining rejects new API work with 503; Drain waits for
	// the in-flight count to hit zero.
	draining    atomic.Bool
	inflight    atomic.Int64
	drained     chan struct{} // closed when draining && inflight == 0
	drainClosed atomic.Bool
}

// testHookJobStart, when non-nil, runs at the start of every admitted job
// with the job's simulation context. Tests use it to hold workers busy or to
// wait for a deadline deterministically.
var testHookJobStart func(ctx context.Context, endpoint string)

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.Workers, cfg.QueueDepth),
		cache:   newRespCache(cfg.CacheSize),
		flight:  newFlightGroup(),
		start:   time.Now(),
		drained: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the full request pipeline: request IDs, access logging,
// latency and status metrics, then routing.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		id := fmt.Sprintf("%x-%06d", s.start.UnixNano()&0xffffff, s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}

		mInFlight.Add(1)
		s.mux.ServeHTTP(sw, r)
		mInFlight.Add(-1)

		elapsed := time.Since(began)
		mResponses.With(strconv.Itoa(sw.status())).Inc()
		mReqSeconds.Observe(elapsed.Seconds())
		if s.cfg.AccessLog != nil {
			fmt.Fprintf(s.cfg.AccessLog,
				"time=%s id=%s method=%s path=%s status=%d bytes=%d dur_ms=%.3f\n",
				began.UTC().Format(time.RFC3339Nano), id, r.Method, r.URL.Path,
				sw.status(), sw.bytes, float64(elapsed)/float64(time.Millisecond))
		}
	})
}

// Drain stops admitting API work (503 with kind "draining") and waits until
// every in-flight request completes, or until ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		// Close drained immediately if nothing is in flight; otherwise the
		// last jobLeave closes it.
		if s.inflight.Load() == 0 {
			s.closeDrained()
		}
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) closeDrained() {
	if s.drainClosed.CompareAndSwap(false, true) {
		close(s.drained)
	}
}

// jobEnter registers an API job; returns false when draining.
func (s *Server) jobEnter() bool {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.jobLeave()
		return false
	}
	return true
}

func (s *Server) jobLeave() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.closeDrained()
	}
}

// statusWriter records the status code and body size for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"kind":"internal","message":"encode failure"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeAPIError renders an apiError as its wire form (the ErrorBody shape)
// through the pooled append encoder, so shed/drain/cancel storms — exactly
// when the server is under the most pressure — do not add GC load.
func writeAPIError(w http.ResponseWriter, e *apiError) {
	buf := getBuf()
	b := appendErrorBody((*buf)[:0], e.kind, e.msg)
	b = append(b, '\n') // amortized: pooled error buffer reused across requests
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	w.Write(b)
	*buf = b
	putBuf(buf)
}

// ctxError maps a finished context to the client-facing error.
func ctxError(ctx context.Context) *apiError {
	if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		mDeadline.Inc()
		return &apiError{status: http.StatusGatewayTimeout, kind: "deadline",
			msg: "request deadline exceeded before the simulation completed"}
	}
	mCanceled.Inc()
	return &apiError{status: 499, kind: "canceled", msg: "request canceled"}
}

// mapRunError classifies an engine error: cancellations become deadline /
// canceled, everything else is an unprocessable configuration.
func mapRunError(err error) *apiError {
	var ce *des.CanceledError
	if errors.As(err, &ce) {
		if errors.Is(ce.Cause, context.DeadlineExceeded) {
			mDeadline.Inc()
			return &apiError{status: http.StatusGatewayTimeout, kind: "deadline",
				msg: fmt.Sprintf("simulation aborted at deadline: %v", err)}
		}
		mCanceled.Inc()
		return &apiError{status: 499, kind: "canceled",
			msg: fmt.Sprintf("simulation canceled: %v", err)}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		mDeadline.Inc()
		return &apiError{status: http.StatusGatewayTimeout, kind: "deadline",
			msg: err.Error()}
	}
	return errUnprocessable(err)
}

// MetricsHandler serves the shared metrics registry in Prometheus 0.0.4
// text format.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.Default.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// OpsHandler returns the operational endpoints alone — GET /healthz and
// GET /metrics — for CLIs (ccube-train, ccube-bench -metrics-addr) that want
// observability without the API surface. It reuses the same handlers the
// full server mounts.
func OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", healthzHandler(nil))
	mux.Handle("GET /metrics", MetricsHandler())
	return mux
}
