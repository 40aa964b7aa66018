package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/metrics"
	"ccube/internal/topology"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/plan", `{"topology":"dgx1","bytes":"1M"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(pr.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if pr.Best.Algorithm != pr.Candidates[0].Algorithm {
		t.Errorf("best %q != first candidate %q", pr.Best.Algorithm, pr.Candidates[0].Algorithm)
	}
	for i := 1; i < len(pr.Candidates); i++ {
		if pr.Candidates[i].TotalNS < pr.Candidates[i-1].TotalNS {
			t.Errorf("candidates not sorted by total: %d before %d",
				pr.Candidates[i-1].TotalNS, pr.Candidates[i].TotalNS)
		}
	}
	if pr.Table == nil || len(pr.Table.Rows) != len(pr.Candidates) {
		t.Error("table missing or row count mismatch")
	}
}

// allow_synth adds the compiled candidate to the ranking; on an irregular
// fabric no built-in covers (rr:<n>), it is the only way /v1/plan can
// answer at all.
func TestPlanEndpointAllowSynth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/plan",
		`{"topology":"dgx1","bytes":"1M","allow_synth":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	found := false
	for _, c := range pr.Candidates {
		if c.Algorithm == "synth" {
			found = true
			if c.TotalNS <= 0 || !c.InOrder {
				t.Errorf("implausible synth candidate: %+v", c)
			}
		}
	}
	if !found {
		t.Fatalf("no synth candidate in %d candidates", len(pr.Candidates))
	}

	// Without allow_synth the random regular fabric has no runnable
	// algorithm; with it the plan succeeds and synth wins by default.
	resp, body = postJSON(t, ts.URL+"/v1/plan", `{"topology":"rr:16","bytes":"1M"}`)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("rr:16 plan without synth unexpectedly succeeded: %s", body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/plan", `{"topology":"rr:16","bytes":"1M","allow_synth":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rr:16 synth plan: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if pr.Best.Algorithm != "synth" {
		t.Errorf("best on rr:16 is %q, want synth", pr.Best.Algorithm)
	}
}

func TestIrregularTopologyNames(t *testing.T) {
	for _, name := range []string{"fcasym:8", "rr:16"} {
		g, err := topology.Named(name)
		if err != nil {
			t.Fatalf("topology.Named(%q): %v", name, err)
		}
		if len(g.GPUs()) == 0 {
			t.Fatalf("%q has no GPUs", name)
		}
		// Same name, same graph: the generators must be deterministic.
		h, err := topology.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Fingerprint() != h.Fingerprint() {
			t.Errorf("%q is not deterministic across builds", name)
		}
	}
	for _, bad := range []string{"fcasym:1", "rr:4", "rr:x"} {
		if _, err := topology.Named(bad); err == nil {
			t.Errorf("topology.Named(%q) succeeded, want error", bad)
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"topology":"dgx1","algorithm":"ccube","bytes":"16M"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if sr.TotalNS <= 0 || sr.TurnaroundNS <= 0 || sr.Chunks < 2 || sr.Participants != 8 {
		t.Errorf("implausible result: %+v", sr)
	}
	if len(sr.Channels) == 0 {
		t.Error("no channel utilization reported")
	}
	if !sr.InOrder {
		t.Error("ccube should deliver in order")
	}
}

func TestSimulateFaultEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"topology":"dgx1","algorithm":"ccube","bytes":"16M","fault":"kill:2-3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if sr.Repair == nil {
		t.Fatal("faulted run reported no repair summary")
	}
	if sr.Repair.Rerouted == 0 {
		t.Error("killing a used link should reroute transfers")
	}
}

func TestTrainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, mode := range []string{"CC", "DDP"} {
		resp, body := postJSON(t, ts.URL+"/v1/train",
			fmt.Sprintf(`{"topology":"dgx1","model":"zfnet","batch":16,"mode":%q}`, mode))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status %d: %s", mode, resp.StatusCode, body)
		}
		var tr TrainResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if tr.IterTimeNS <= 0 || tr.Normalized <= 0 || tr.Normalized > 1 {
			t.Errorf("mode %s: implausible result: %+v", mode, tr)
		}
		if len(tr.PerGPUNS) != 8 {
			t.Errorf("mode %s: want 8 per-GPU times, got %d", mode, len(tr.PerGPUNS))
		}
	}
}

// TestSimulateAcceptsMaxChunks: the chunk bound admits collective.MaxAutoChunks
// itself, the largest count a build picks on its own.
func TestSimulateAcceptsMaxChunks(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		fmt.Sprintf(`{"topology":"dgx1","algorithm":"ccube","bytes":"1M","chunks":%d}`, collective.MaxAutoChunks))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantKind         string
	}{
		{"malformed json", "/v1/plan", `{"topology":`, 400, "bad_request"},
		{"unknown field", "/v1/plan", `{"topology":"dgx1","bytes":1024,"bogus":1}`, 400, "bad_request"},
		{"trailing data", "/v1/plan", `{"topology":"dgx1","bytes":1024}{"x":1}`, 400, "bad_request"},
		{"unknown topology", "/v1/plan", `{"topology":"torus","bytes":1024}`, 400, "bad_request"},
		{"unknown algorithm", "/v1/simulate", `{"topology":"dgx1","algorithm":"warp","bytes":1024}`, 400, "bad_request"},
		{"bad fault spec", "/v1/simulate", `{"topology":"dgx1","algorithm":"ccube","bytes":1024,"fault":"zap"}`, 400, "bad_request"},
		{"too many chunks", "/v1/simulate", `{"topology":"cluster:64","algorithm":"tree","bytes":"1G","chunks":100000000}`, 400, "bad_request"},
		{"negative chunks", "/v1/simulate", `{"topology":"dgx1","algorithm":"ccube","bytes":1024,"chunks":-1}`, 400, "bad_request"},
		{"too many train chunks", "/v1/train", `{"topology":"dgx1","model":"zfnet","batch":4,"mode":"CC","chunks":513}`, 400, "bad_request"},
		{"unknown model", "/v1/train", `{"topology":"dgx1","model":"gpt99","batch":4,"mode":"CC"}`, 400, "bad_request"},
		{"unknown mode", "/v1/train", `{"topology":"dgx1","model":"zfnet","batch":4,"mode":"ZZ"}`, 400, "bad_request"},
		{"too large", "/v1/plan", `{"topology":"` + strings.Repeat("x", 600) + `","bytes":1}`, 413, "too_large"},
		{"impossible config", "/v1/simulate", `{"topology":"dgx1","algorithm":"ring","bytes":4}`, 422, "unprocessable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body not JSON: %v: %s", err, body)
			}
			if eb.Error.Kind != tc.wantKind {
				t.Errorf("kind %q want %q", eb.Error.Kind, tc.wantKind)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: status %d want 404", resp.StatusCode)
	}
}

func TestResponseCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"topology":"dgx1","algorithm":"ring","bytes":"1M"}`
	r1, b1 := postJSON(t, ts.URL+"/v1/simulate", body)
	if r1.StatusCode != 200 {
		t.Fatalf("first: %d %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	// A textually different but canonically identical body must also hit.
	r2, b2 := postJSON(t, ts.URL+"/v1/simulate",
		`{"topology":"dgx1","algorithm":"ring","bytes":1048576}`)
	if r2.StatusCode != 200 {
		t.Fatalf("second: %d %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cached body differs from computed body")
	}
}

// A negative CacheSize disables the response cache (zero takes the
// default): a repeated identical request is computed again, never replayed.
func TestResponseCacheDisabledByNegativeSize(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	const body = `{"topology":"dgx1","bytes":"1M"}`
	for i := 0; i < 2; i++ {
		r, b := postJSON(t, ts.URL+"/v1/plan", body)
		if r.StatusCode != 200 {
			t.Fatalf("request %d: %d %s", i, r.StatusCode, b)
		}
		if got := r.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("request %d: X-Cache = %q with CacheSize -1, want miss", i, got)
		}
	}
}

func TestSingleflightCollapsesIdenticalRequests(t *testing.T) {
	var mu sync.Mutex
	executions := 0
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	testHookJobStart = func(ctx context.Context, endpoint string) {
		mu.Lock()
		executions++
		mu.Unlock()
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testHookJobStart = nil })

	_, ts := newTestServer(t, Config{Workers: 4})
	const body = `{"topology":"dgx1","algorithm":"tree","bytes":"2M"}`
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	go func() {
		resp, b := postRaw(ts.URL+"/v1/simulate", body)
		results <- result{resp, b}
	}()
	<-entered // leader is inside the job
	go func() {
		resp, b := postRaw(ts.URL+"/v1/simulate", body)
		results <- result{resp, b}
	}()
	// Give the follower a moment to attach to the flight, then release.
	// There is no event to wait on (the follower blocks inside flight.do),
	// so release is driven by the leader finishing.
	close(release)
	r1 := <-results
	r2 := <-results
	if r1.status != 200 || r2.status != 200 {
		t.Fatalf("statuses %d, %d", r1.status, r2.status)
	}
	if !bytes.Equal(r1.body, r2.body) {
		t.Error("collapsed requests returned different bodies")
	}
	mu.Lock()
	defer mu.Unlock()
	if executions > 2 {
		t.Errorf("expected at most 2 executions (ideally 1), got %d", executions)
	}
}

func postRaw(url, body string) (int, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func TestSheddingWhenSaturated(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	testHookJobStart = func(ctx context.Context, endpoint string) {
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testHookJobStart = nil })

	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	done := make(chan struct{})
	go func() {
		// Occupies the only worker until release. Distinct body so the
		// second request cannot ride its flight.
		postRaw(ts.URL+"/v1/simulate", `{"topology":"dgx1","algorithm":"ring","bytes":"4M"}`)
		close(done)
	}()
	<-entered

	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"topology":"dgx1","algorithm":"tree","bytes":"4M"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != "saturated" {
		t.Errorf("kind %q want saturated (%v)", eb.Error.Kind, err)
	}

	close(release)
	<-done

	// Pool free again: same request now succeeds.
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate",
		`{"topology":"dgx1","algorithm":"tree","bytes":"4M"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp2.StatusCode, body2)
	}
}

func TestDeadlineCancelsSimulation(t *testing.T) {
	// The hook waits out the request deadline, so the engine provably runs
	// under an expired context and must abort through des.CanceledError.
	testHookJobStart = func(ctx context.Context, endpoint string) { <-ctx.Done() }
	t.Cleanup(func() { testHookJobStart = nil })

	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"topology":"dgx1","algorithm":"ccube","bytes":"16M","timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != "deadline" {
		t.Errorf("kind %q want deadline", eb.Error.Kind)
	}
}

func TestDeadlineSurfacesCanceledError(t *testing.T) {
	// The full engine path under an expired deadline must surface a typed
	// *des.CanceledError carrying context.DeadlineExceeded.
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	g, err := topology.Named("dgx1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = collective.RunCtx(ctx, collective.Config{
		Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 16 << 20,
	})
	var ce *des.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *des.CanceledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause %v is not DeadlineExceeded", ce.Cause)
	}
	if mapped := mapRunError(err); mapped.status != http.StatusGatewayTimeout || mapped.kind != "deadline" {
		t.Errorf("mapRunError = %d/%s, want 504/deadline", mapped.status, mapped.kind)
	}
}

func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	testHookJobStart = func(ctx context.Context, endpoint string) {
		close(entered)
		<-release
	}
	t.Cleanup(func() { testHookJobStart = nil })

	s, ts := newTestServer(t, Config{Workers: 2})
	inFlight := make(chan int, 1)
	go func() {
		status, _ := postRaw(ts.URL+"/v1/simulate", `{"topology":"dgx1","algorithm":"ring","bytes":"8M"}`)
		inFlight <- status
	}()
	<-entered

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// Wait until the server flips to draining, then new work must be 503.
	for !s.Draining() {
		runtime.Gosched()
	}
	resp, body := postJSON(t, ts.URL+"/v1/plan", `{"topology":"dgx1","bytes":"1M"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d want 503: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != "draining" {
		t.Errorf("kind %q want draining (%v)", eb.Error.Kind, err)
	}
	hresp, _ := http.Get(ts.URL + "/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d want 503", hresp.StatusCode)
	}
	hresp.Body.Close()

	// The in-flight request must complete, and then Drain must return.
	close(release)
	if status := <-inFlight; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", status)
	}
	if err := <-drainErr; err != nil {
		t.Errorf("Drain: %v", err)
	}
}

func TestDrainTimeout(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	testHookJobStart = func(ctx context.Context, endpoint string) {
		close(entered)
		<-release
	}
	t.Cleanup(func() { testHookJobStart = nil })

	s, ts := newTestServer(t, Config{Workers: 1})
	go postRaw(ts.URL+"/v1/simulate", `{"topology":"dgx1","algorithm":"ring","bytes":"8M"}`)
	<-entered
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain with expired ctx: %v, want DeadlineExceeded", err)
	}
	close(release)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Errorf("healthz = %+v", h)
	}
}

// promLine matches a Prometheus 0.0.4 sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?(_bucket\{[^}]*\}|_sum|_count)? [-+0-9.eE]+(Inf|NaN)?$`)

func TestMetricsEndpoint(t *testing.T) {
	metrics.Default.Enable()
	t.Cleanup(metrics.Default.Disable)

	_, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/plan", `{"topology":"dgx1","bytes":"1M"}`); resp.StatusCode != 200 {
		t.Fatalf("plan: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, `ccube_serve_requests_total{endpoint="plan"}`) {
		t.Error("metrics lack ccube_serve_requests_total{endpoint=\"plan\"}")
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed Prometheus line: %q", line)
		}
	}
}

func TestOpsHandler(t *testing.T) {
	ts := httptest.NewServer(OpsHandler())
	defer ts.Close()
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestConcurrentMixedEndpoints exercises all endpoints in parallel; its value
// is under -race, where any unsynchronized state in the shared topology
// graphs, caches, or admission pool would trip the detector.
func TestConcurrentMixedEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	bodies := []struct{ path, body string }{
		{"/v1/plan", `{"topology":"dgx1","bytes":"1M"}`},
		{"/v1/plan", `{"topology":"dgx1","bytes":"2M","objective":"turnaround"}`},
		{"/v1/simulate", `{"topology":"dgx1","algorithm":"ccube","bytes":"4M"}`},
		{"/v1/simulate", `{"topology":"dgx1","algorithm":"ring","bytes":"2M"}`},
		{"/v1/simulate", `{"topology":"dgx1","algorithm":"ccube","bytes":"1M","fault":"kill:2-3"}`},
		{"/v1/train", `{"topology":"dgx1","model":"zfnet","batch":8,"mode":"CC"}`},
		{"/v1/train", `{"topology":"dgx1","model":"zfnet","batch":8,"mode":"DDP"}`},
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(bodies)*4)
	for round := 0; round < 4; round++ {
		for _, b := range bodies {
			wg.Add(1)
			go func(path, body string) {
				defer wg.Done()
				status, respBody := postRaw(ts.URL+path, body)
				if status != 200 && status != 429 {
					errs <- fmt.Sprintf("%s: status %d: %s", path, status, respBody)
				}
			}(b.path, b.body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
