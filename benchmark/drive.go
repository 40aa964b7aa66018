package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccube/internal/server"
)

// clients is both the closed loop's client count and the server's worker
// count: the reference machine has two cores, and planning callers wait
// for their reply before sending the next request.
const clients = 2

// segments is how many equal-time slices the window is cut into. Throughput
// and CPU per request are medians over slices, which ride out a short burst
// of neighbour load; between slices the server idles while the
// machine-speed probe runs.
const segments = 10

// target is one booted server on a loopback port and the client driving it.
type target struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// boot starts ccube-serve's handler over net/http with production defaults
// except the worker count.
func boot() (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{Workers: clients})
	t := &target{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		served: make(chan error, 1),
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// close drains the server, stops the listener and waits for Serve to return.
func (t *target) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := t.srv.Drain(ctx)
	if e := t.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-t.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	t.client.CloseIdleConnections()
	return err
}

// sample is one request as the client saw it.
type sample struct {
	pos        int // position in its phase, in send order
	req        request
	start, end time.Time
	status     int
	hit        bool // X-Cache: hit
	body       []byte
	err        error
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

func (t *target) do(q request) sample {
	s := sample{req: q, start: time.Now()}
	resp, err := t.client.Post(t.base+q.path, "application/json", bytes.NewReader(q.body))
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
		s.hit = resp.Header.Get("X-Cache") == "hit"
	}
	s.end = time.Now()
	s.err = err
	return s
}

// closedLoop sends stream[first+pos] for pos = 0, 1, ... from `clients`
// goroutines, each sending its next request as soon as its previous reply is
// read, until pos reaches limit or stop reports true. stop is checked before
// a position is claimed, so the served positions are always 0..n-1. Samples
// return in position order.
func (t *target) closedLoop(stream []request, first, limit int, stop *atomic.Bool) []sample {
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for stop == nil || !stop.Load() {
				pos := int(next.Add(1) - 1)
				if pos >= limit {
					return
				}
				s := t.do(stream[(first+pos)%len(stream)])
				s.pos = pos
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].pos < all[b].pos })
	return all
}

// segment is one slice of the window: the closed loop runs for a fixed time,
// then stops and drains before the next slice starts.
type segment struct {
	samples []sample
	dur     time.Duration // from the first send to the last reply
	ok      int           // 200-responses
	cpu     time.Duration // process user+sys CPU time
}

// window runs the closed loop from stream[first] in segments of
// dur/segments, adding segments until at least minOK requests have
// succeeded; positions continue across segments. The machine-speed probe
// runs before the first segment and after each one, while the server is
// idle.
func (t *target) window(stream []request, first int, dur time.Duration, minOK int) (segs []segment, probes []time.Duration, err error) {
	period := max(dur/segments, 10*time.Millisecond)
	p, err := measureProbe()
	if err != nil {
		return nil, nil, err
	}
	probes = append(probes, p)
	ok, next := 0, 0
	for k := 0; k < segments || ok < minOK; k++ {
		var stop atomic.Bool
		timer := time.AfterFunc(period, func() { stop.Store(true) })
		cpu0, began := cpuTime(), time.Now()
		seg := segment{samples: t.closedLoop(stream, first+next, math.MaxInt, &stop)}
		seg.dur, seg.cpu = time.Since(began), cpuTime()-cpu0
		timer.Stop()
		for i := range seg.samples {
			seg.samples[i].pos += next
			if seg.samples[i].ok() {
				seg.ok++
			}
		}
		next += len(seg.samples)
		ok += seg.ok
		segs = append(segs, seg)
		if p, err = measureProbe(); err != nil {
			return nil, nil, err
		}
		probes = append(probes, p)
	}
	return segs, probes, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
