package collective

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// prefixCase is one chunk-major shape: build returns its k-chunk schedule
// at the shape's size plus extra bytes through a cache, as a header when
// one can serve it, and cold returns the one at k extra bytes built from
// scratch. Chunk counts run from first to K.
type prefixCase struct {
	name     string
	first, K int
	build    func(c *Cache, k int, extra int64) (*Schedule, error)
	cold     func(k int) (*Schedule, error)
}

// builtinPrefixCase is a built-in algorithm's shape.
func builtinPrefixCase(name string, cfg Config, K int) prefixCase {
	at := func(k int, extra int64) Config {
		c := cfg
		c.Chunks, c.Bytes = k, cfg.Bytes+extra
		return c
	}
	return prefixCase{
		name: name, first: 1, K: K,
		build: func(c *Cache, k int, extra int64) (*Schedule, error) { return c.Build(at(k, extra)) },
		cold:  func(k int) (*Schedule, error) { return Build(at(k, int64(k))) },
	}
}

// forestPrefixCase is a forest over trees, cached as a synthesized
// schedule is: the builder asks for a header first, then assembles.
func forestPrefixCase(name string, g *topology.Graph, trees []RoutedTree, K int) prefixCase {
	nodes, t := g.GPUs(), len(trees)
	cfg := Config{Graph: g, Algorithm: AlgSynth, SynthKey: "prefix-test"}
	at := func(k int, extra int64) (Config, chunk.Partition) {
		c := cfg
		c.Bytes = 1<<20 + extra
		return c, chunk.Split(c.Bytes, k)
	}
	return prefixCase{
		name: name, first: t, K: K,
		build: func(c *Cache, k int, extra int64) (*Schedule, error) {
			cfg, part := at(k, extra)
			return c.BuildWith(cfg, func() (*Schedule, error) {
				if s := c.Header(cfg, t, part); s != nil {
					return s, nil
				}
				return AssembleForest(g, nodes, part, trees)
			})
		},
		cold: func(k int) (*Schedule, error) {
			_, part := at(k, int64(k))
			return AssembleForest(g, nodes, part, trees)
		},
	}
}

// routedTrees routes trees over g's GPUs as buildTreeSchedule does.
func routedTrees(t *testing.T, g *topology.Graph, trees ...Tree) []RoutedTree {
	t.Helper()
	router := topology.NewRouter(g)
	out := make([]RoutedTree, len(trees))
	for i, tree := range trees {
		var err error
		if out[i], err = assignRoutes(g, g.GPUs(), tree, router, false); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// prefixCases are the overlapped built-ins on the DGX-1 and on cluster:64
// (shared channels, as simulate_scale runs them) at up to 128 chunks, and a
// forest of the DGX-1's two trees.
func prefixCases(t *testing.T) []prefixCase {
	d := dgx1()
	c64 := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
	t1, t2 := DGX1Trees()
	return []prefixCase{
		builtinPrefixCase("dgx1/tree-overlap", Config{Graph: d, Algorithm: AlgTreeOverlap, Bytes: 16 << 20}, 128),
		builtinPrefixCase("dgx1/double-tree-overlap", Config{Graph: d, Algorithm: AlgDoubleTreeOverlap, Bytes: 16 << 20}, 128),
		builtinPrefixCase("cluster64/tree-overlap", Config{Graph: c64, Algorithm: AlgTreeOverlap, Bytes: 64 << 20, AllowSharedChannels: true}, 128),
		builtinPrefixCase("cluster64/double-tree-overlap", Config{Graph: c64, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, AllowSharedChannels: true}, 128),
		forestPrefixCase("dgx1/forest", d, routedTrees(t, d, t1, t2), 128),
	}
}

// sharesPrefix reports whether h is a header over carrier's first ops: the
// same ops and dependency CSR arrays, capped at h's lengths so no append
// through h reaches the carrier's.
func sharesPrefix(h, carrier *Schedule) bool {
	return len(h.ops) > 0 && &h.ops[0] == &carrier.ops[0] && &h.depOff[0] == &carrier.depOff[0] &&
		(len(h.deps) == 0 || &h.deps[0] == &carrier.deps[0]) &&
		cap(h.ops) == len(h.ops) && cap(h.depOff) == len(h.depOff) && cap(h.deps) == len(h.deps)
}

// checkPrefixes builds pc's K-chunk carrier in a fresh cache, then every
// k-chunk schedule from pc.first to K at k extra bytes, so each is a new
// key: each must be a header over the
// carrier's prefix, deep-equal to a cold build, and run identically, and
// the cache must count the carrier's bytes once throughout, and from the
// second run on the carrier's lowered skeleton once too.
func checkPrefixes(t *testing.T, pc prefixCase) {
	c := NewCache()
	carrier, err := pc.build(c, pc.K, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 0 {
		t.Fatal("the carrier was served as a header")
	}
	retained := c.RetainedBytes()
	if retained != opGraphBytes(carrier) {
		t.Fatalf("RetainedBytes = %d, want the carrier's %d", retained, opGraphBytes(carrier))
	}
	ctx := context.Background()
	for k := pc.first; k <= pc.K; k++ {
		before := c.IncrementalBuilds()
		h, err := pc.build(c, k, int64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if c.IncrementalBuilds() != before+1 {
			t.Fatalf("k=%d: not served by a header over the carrier", k)
		}
		if !sharesPrefix(h, carrier) {
			t.Fatalf("k=%d: the header does not share the carrier's prefix", k)
		}
		cold, err := pc.cold(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !schedulesEqual(h, cold) {
			t.Fatalf("k=%d: the header differs from a cold build", k)
		}
		rh, err := h.ExecuteCtx(ctx)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		rc, err := cold.ExecuteCtx(ctx)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(rh, rc) {
			t.Fatalf("k=%d: the header runs in %v, a cold build in %v", k, rh.Total, rc.Total)
		}
	}
	// The headers ran on the carrier's one lowered skeleton, which the
	// cache counts once, at its exact size.
	var sk int64
	if built := carrier.g.sk.Load(); built != nil {
		sk = built.bytes()
	}
	if got := c.RetainedBytes(); sk == 0 || got != retained+sk {
		t.Fatalf("RetainedBytes = %d after %d headers, want the carrier's %d and its skeleton's %d once",
			got, pc.K-pc.first+1, retained, sk)
	}
}

// TestChunkPrefixesQualifyByLayout: the built-in trees qualify for the
// phase-prefix certificate on the DGX-1 at every chunk count. The
// overlapped tree and C-Cube are laid out chunk-major, one phase, and the
// separated trees in two phases, which a tree carrying one chunk is also
// laid out as one. Overlapped trees that share a channel keep the
// tree-major layout, whose DES ties favour tree 0, so they do not qualify.
func TestChunkPrefixesQualifyByLayout(t *testing.T) {
	byChunk := func(a, b schedcheck.Op) int { return cmp.Compare(a.Chunk, b.Chunk) }
	fc4 := topology.FullyConnected(4, topology.NVLinkBandwidth, topology.NVLinkLatency)
	shared, err := Build(Config{Graph: fc4, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8, AllowSharedChannels: true})
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSortedFunc(shared.Program().Ops, byChunk) {
		t.Error("C-Cube on fc:4, whose trees share a channel, was laid out chunk-major")
	}
	if schedcheck.PhasePrefixes(shared.Program()) != nil {
		t.Error("the tree-major C-Cube on fc:4 qualified")
	}
	g := dgx1()
	for _, alg := range []Algorithm{AlgTree, AlgTreeOverlap, AlgDoubleTree, AlgDoubleTreeOverlap} {
		for _, k := range []int{1, 2, 3, 8, 33} {
			s, err := Build(Config{Graph: g, Algorithm: alg, Bytes: 1 << 20, Chunks: k})
			if err != nil {
				t.Fatal(err)
			}
			p := s.Program()
			overlap := alg == AlgTreeOverlap || alg == AlgDoubleTreeOverlap
			if want := overlap || s.Partition.NumChunks() == s.Streams; slices.IsSortedFunc(p.Ops, byChunk) != want {
				t.Errorf("%v at %d chunks: chunk-major = %v, want %v", alg, s.Partition.NumChunks(), !want, want)
			}
			ph := schedcheck.PhasePrefixes(p)
			if ph == nil {
				t.Errorf("%v at %d chunks was refused", alg, s.Partition.NumChunks())
				continue
			}
			if ops, _, _ := ph.Derive(p, p.NumChunks); len(ops) != s.NumTransfers() {
				t.Errorf("%v at %d chunks: the full derivative has %d ops, want %d", alg, k, len(ops), s.NumTransfers())
			}
		}
	}
}

// TestTreeMajorServedOnlyByExactShape: an overlapped forest laid out tree
// by tree (every chunk of tree 0, then tree 1's) is correct but not
// chunk-major, so the cache keys it by its chunk count. A request of that
// count is served by a header over it; one for fewer chunks is not, since
// its first ops are not a prefix of the chunk order.
func TestTreeMajorServedOnlyByExactShape(t *testing.T) {
	g := dgx1()
	const K = 8
	base, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: K})
	if err != nil {
		t.Fatal(err)
	}
	// Lay the ops out tree-major: a stable reorder by tree keeps every
	// dependency and relay slot below its reader, since both stay in the tree.
	n, streams := base.NumTransfers(), base.Streams
	order := make([]int, 0, n)
	for tree := 0; tree < streams; tree++ {
		for i, op := range base.ops {
			if int(op.Chunk)%streams == tree {
				order = append(order, i)
			}
		}
	}
	newID := make([]int, n)
	for j, i := range order {
		newID[i] = j
	}
	spec := AssembleSpec{Graph: g, Nodes: base.Nodes, InOrder: true, Streams: streams, Contract: ContractAllReduce,
		Ops: make([]schedcheck.Op, n), Deps: make([][]int, n)}
	for j, i := range order {
		op := base.ops[i]
		if op.Src.Relay >= 0 {
			op.Src.Relay = int32(newID[op.Src.Relay])
		}
		if op.Dst.Relay >= 0 {
			op.Dst.Relay = int32(newID[op.Dst.Relay])
		}
		spec.Ops[j] = op
		for _, d := range base.depsOf(i) {
			spec.Deps[j] = append(spec.Deps[j], newID[d])
		}
	}
	cfg := Config{Graph: g, Algorithm: AlgSynth, SynthKey: "tree-major", Bytes: 1 << 20}
	spec.Partition = chunk.Split(cfg.Bytes, K)
	c := NewCache()
	tm, err := c.BuildWith(cfg, func() (*Schedule, error) { return Assemble(spec) })
	if err != nil {
		t.Fatal(err)
	}
	if schedcheck.PhasePrefixes(tm.Program()) != nil {
		t.Fatal("a tree-major layout qualified as chunk-major")
	}
	if c.shapes[c.key(cfg).shape(K, streams)] == nil || c.shapes[c.key(cfg).shape(anyChunks, streams)] != nil {
		t.Fatal("the tree-major graph is not indexed by its exact shape alone")
	}
	cfg.Bytes++
	if h := c.Header(cfg, streams, chunk.Split(cfg.Bytes, K)); h == nil || !sharesOpGraph(h, tm) {
		t.Fatal("a request of the exact shape was not served by a header over the resident graph")
	}
	for k := streams; k < K; k++ {
		if h := c.Header(cfg, streams, chunk.Split(cfg.Bytes, k)); h != nil {
			t.Fatalf("a %d-chunk request was served from the %d-chunk tree-major graph", k, K)
		}
	}
}

// TestCarrierGrowsWithRequests: a request for more chunks than the resident
// carrier holds builds, and its graph becomes the carrier that serves every
// smaller count; the smaller graph stays resident while entries use it.
func TestCarrierGrowsWithRequests(t *testing.T) {
	g := dgx1()
	c := NewCache()
	cfg := Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	small, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chunks, cfg.Bytes = 32, cfg.Bytes+1
	large, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 0 || sharesOpGraph(large, small) {
		t.Fatal("a request for more chunks than the carrier holds was served by it")
	}
	if got, want := c.RetainedBytes(), opGraphBytes(small)+opGraphBytes(large); got != want {
		t.Fatalf("RetainedBytes = %d, want both graphs' %d", got, want)
	}
	cfg.Chunks, cfg.Bytes = 8, cfg.Bytes+1
	h, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 1 || !sharesPrefix(h, large) {
		t.Fatal("a smaller request was not served by the largest carrier")
	}
}

// TestPrefixHeaderRepairRace runs RepairSchedule on a prefix header, which
// clones what it rewrites, while the carrier executes from the same arrays.
// Under -race any write through the header's views would be reported; both
// schedules must still equal fresh builds afterwards.
func TestPrefixHeaderRepairRace(t *testing.T) {
	g := dgx1()
	c := NewCache()
	cfg := Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 4 << 20, Chunks: 24}
	carrier, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := cfg
	small.Chunks, small.Bytes = 10, cfg.Bytes+1
	h, err := c.Build(small)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesPrefix(h, carrier) {
		t.Fatal("the header does not share the carrier's prefix")
	}
	// Every channel the header rides: the duplicated NVLinks among them
	// rebalance, which rewrites transfers of the repair's clone.
	var chans []topology.ChannelID
	for _, op := range h.ops {
		if !op.Marker() && !slices.Contains(chans, op.ChannelID()) {
			chans = append(chans, op.ChannelID())
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range 10 {
			if _, err := carrier.ExecuteCtx(ctx); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range 10 {
			r, rep, err := RepairSchedule(h, chans, nil)
			if err == nil && rep.Rebalanced == 0 {
				t.Error("the repair rewrote nothing")
			}
			if err == nil {
				_, err = r.ExecuteCtx(ctx)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s   *Schedule
		cfg Config
	}{{carrier, cfg}, {h, small}} {
		fresh, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !schedulesEqual(tc.s, fresh) {
			t.Fatalf("%d-chunk schedule changed under the repair", tc.cfg.Chunks)
		}
	}
}

// TestHeaderReentersCarrier: a synthesized header taken from a 64-chunk
// forest carrier, which then leaves the cache before BuildWith inserts the
// header, re-enters the carrier's own op graph. The cache counts the
// carrier's bytes, which the header's arrays pin, and the carrier serves
// every chunk count up to its own again.
func TestHeaderReentersCarrier(t *testing.T) {
	g := dgx1()
	t1, t2 := DGX1Trees()
	trees := routedTrees(t, g, t1, t2)
	nodes, streams := g.GPUs(), len(trees)
	c := NewCache()
	at := func(k int) (Config, chunk.Partition) {
		cfg := Config{Graph: g, Algorithm: AlgSynth, SynthKey: "reenter", Bytes: 1<<20 + int64(k)}
		return cfg, chunk.Split(cfg.Bytes, k)
	}
	cfg64, part64 := at(64)
	carrier, err := c.BuildWith(cfg64, func() (*Schedule, error) { return AssembleForest(g, nodes, part64, trees) })
	if err != nil {
		t.Fatal(err)
	}
	cfg16, part16 := at(16)
	h := c.Header(cfg16, streams, part16)
	if h == nil || !sharesPrefix(h, carrier) {
		t.Fatal("the 16-chunk request was not served by a header over the carrier's prefix")
	}
	c.Evict(cfg64)
	if c.RetainedBytes() != 0 {
		t.Fatalf("RetainedBytes = %d with no entry left", c.RetainedBytes())
	}
	got, err := c.BuildWith(cfg16, func() (*Schedule, error) { return h, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatal("BuildWith did not return the header")
	}
	if got, want := c.RetainedBytes(), opGraphBytes(carrier); got != want {
		t.Fatalf("RetainedBytes = %d, want the carrier's %d, which the header pins", got, want)
	}
	for k := streams; k <= 64; k++ {
		cfg, part := at(k)
		if s := c.Header(cfg, streams, part); s == nil || !sharesPrefix(s, carrier) {
			t.Fatalf("a %d-chunk request was not served from the carrier the header re-entered", k)
		}
	}
}
