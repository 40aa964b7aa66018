// Command ccube-serve exposes the simulator as a JSON HTTP service:
//
//	POST /v1/plan      — rank AllReduce algorithms for a topology + size
//	POST /v1/simulate  — run one collective (optionally under faults)
//	POST /v1/train     — simulate a training iteration (B/C1/C2/R/CC/DDP)
//	GET  /healthz      — liveness + pool occupancy
//	GET  /metrics      — Prometheus 0.0.4 text
//	GET  /debug/pprof/ — profiling (with -pprof)
//
// Requests carry per-request deadlines (timeout_ms) that cancel the
// simulation itself; the worker pool sheds excess load with 429 +
// Retry-After; identical concurrent requests are collapsed onto one
// computation and cached. SIGINT/SIGTERM drains gracefully.
//
// Usage:
//
//	ccube-serve -addr :8080 -workers 8
//	curl -s localhost:8080/v1/plan -d '{"topology":"dgx1","bytes":"16M"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccube/internal/metrics"
	"ccube/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", server.DefaultWorkers, "concurrent simulation workers")
	queue := flag.Int("queue", server.DefaultQueueDepth, "admission queue depth (0 = shed when all workers busy)")
	timeout := flag.Duration("timeout", server.DefaultTimeoutDur, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", server.DefaultMaxTimeout, "upper bound on client-requested deadlines")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body bytes")
	cacheSize := flag.Int("cache", server.DefaultCacheSize, "response cache entries (negative disables)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/")
	accessLog := flag.Bool("access-log", true, "log one line per request to stderr")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight work on shutdown")
	flag.Parse()

	metrics.Default.Enable()

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		CacheSize:      *cacheSize,
		EnablePprof:    *pprofOn,
	}
	if *queue == 0 {
		cfg.QueueDepth = -1
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	srv := server.New(cfg)

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ccube-serve listening on %s (workers=%d queue=%d)\n", *addr, *workers, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		fail("%v", err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ccube-serve: %v: draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop accepting new connections, then wait for in-flight simulations.
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fail("shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fail("drain: %v", err)
	}
	fmt.Fprintln(os.Stderr, "ccube-serve: drained cleanly")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
