package collective

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

func cacheTestConfig(g *topology.Graph) Config {
	return Config{
		Graph:     g,
		Algorithm: AlgDoubleTreeOverlap,
		Bytes:     1 << 20,
		Chunks:    8,
	}
}

func TestCacheHitReturnsSameVerifiedSchedule(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()

	first, err := c.Build(cacheTestConfig(g))
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	if first.BuiltFingerprint() == 0 {
		t.Fatal("cached schedule was not stamped with its build fingerprint")
	}
	second, err := c.Build(cacheTestConfig(g))
	if err != nil {
		t.Fatalf("warm build: %v", err)
	}
	if first != second {
		t.Fatal("cache miss on identical config: want the same *Schedule back")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if _, err := second.ExecuteCtx(context.Background()); err != nil {
		t.Fatalf("executing cached schedule: %v", err)
	}
}

func TestCacheStaleScheduleFailsLoudlyAfterKillChannel(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()

	s, err := c.Build(cacheTestConfig(g))
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}

	g.KillChannel(0)
	_, err = s.ExecuteCtx(context.Background())
	var stale *StaleScheduleError
	if !errors.As(err, &stale) {
		t.Fatalf("executing cached schedule on mutated topology: got %v, want *StaleScheduleError", err)
	}
	if stale.Built == stale.Current {
		t.Fatalf("stale error reports identical fingerprints %x", stale.Built)
	}

	// Restoring the channel restores the original fingerprint, so the
	// original entry becomes valid — and hittable — again.
	g.RestoreChannel(0)
	again, err := c.Build(cacheTestConfig(g))
	if err != nil {
		t.Fatalf("build after restore: %v", err)
	}
	if again != s {
		t.Fatal("restore did not bring back the original cache entry")
	}
	if _, err := again.ExecuteCtx(context.Background()); err != nil {
		t.Fatalf("executing restored schedule: %v", err)
	}

	// A degraded (slower but alive) channel also changes the fingerprint:
	// the lookup misses and rebuilds against the degraded fabric instead of
	// serving the stale entry — and the stale entry again refuses to run.
	g.DegradeChannel(0, 4)
	rebuilt, err := c.Build(cacheTestConfig(g))
	if err != nil {
		t.Fatalf("rebuild on degraded topology: %v", err)
	}
	if rebuilt == s {
		t.Fatal("cache served the pre-degrade schedule for the mutated topology")
	}
	if _, err := rebuilt.ExecuteCtx(context.Background()); err != nil {
		t.Fatalf("executing rebuilt schedule: %v", err)
	}
	if _, err := s.ExecuteCtx(context.Background()); !errors.As(err, &stale) {
		t.Fatalf("executing pre-degrade schedule: got %v, want *StaleScheduleError", err)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2", hits, misses)
	}
}

func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()

	base := cacheTestConfig(g)
	if _, err := c.Build(base); err != nil {
		t.Fatal(err)
	}

	variants := []Config{}
	bigger := base
	bigger.Bytes *= 2
	variants = append(variants, bigger)
	ring := base
	ring.Algorithm = AlgRing
	variants = append(variants, ring)
	chunked := base
	chunked.Chunks = 16
	variants = append(variants, chunked)
	shared := base
	shared.AllowSharedChannels = true
	variants = append(variants, shared)

	for i, cfg := range variants {
		if _, err := c.Build(cfg); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != uint64(1+len(variants)) {
		t.Fatalf("stats = %d hits / %d misses, want 0/%d", hits, misses, 1+len(variants))
	}
}

func TestCacheKeyIncludesGraphIdentity(t *testing.T) {
	a := topology.DGX1(topology.DefaultDGX1Config())
	b := topology.DGX1(topology.DefaultDGX1Config())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("precondition: identical builds must share a fingerprint")
	}
	c := NewCache()
	sa, err := c.Build(cacheTestConfig(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.Build(cacheTestConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	// Content-identical but distinct graphs must not share a schedule: fault
	// flows mutate per-cell graphs, and a shared schedule would point repair
	// and staleness checks at the wrong Graph.
	if sa == sb {
		t.Fatal("cache shared a schedule across distinct graph objects")
	}
	if sa.Graph != a || sb.Graph != b {
		t.Fatal("cached schedule references the wrong graph")
	}
}

func TestCacheBypassesTreeOverrides(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()
	cfg := cacheTestConfig(g)
	t1, t2 := DGX1Trees()
	cfg.Trees = []Tree{t1, t2}

	s1, err := c.Build(cfg)
	if err != nil {
		t.Fatalf("build with tree override: %v", err)
	}
	s2, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("tree-override config was cached; overrides must bypass the cache")
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after bypass-only builds, want 0", c.Len())
	}
}

// A schedule the cache does not memoize — a Trees override, or any config
// while the cache is disabled — is still stamped, so it goes stale like a
// cached one when its topology mutates.
func TestUncachedScheduleGoesStale(t *testing.T) {
	t1, t2 := DGX1Trees()
	for name, build := range map[string]func(c *Cache, cfg Config) (*Schedule, error){
		"trees-override": func(c *Cache, cfg Config) (*Schedule, error) {
			cfg.Trees = []Tree{t2, t1}
			return c.Build(cfg)
		},
		"disabled": func(c *Cache, cfg Config) (*Schedule, error) {
			c.SetEnabled(false)
			return c.Build(cfg)
		},
	} {
		t.Run(name, func(t *testing.T) {
			g := dgx1()
			s, err := build(NewCache(), cacheTestConfig(g))
			if err != nil {
				t.Fatal(err)
			}
			g.DegradeChannel(usedChannels(s)[0], 4)
			var stale *StaleScheduleError
			if _, err := s.ExecuteCtx(context.Background()); !errors.As(err, &stale) {
				t.Fatalf("executing on a degraded fabric: got %v, want *StaleScheduleError", err)
			}
		})
	}
}

// Verification happens in one place, the constructor (Build, Assemble,
// AssembleForest), and the cache neither proves nor stamps. So a disabled
// cache and a Trees override verify built-ins too, a disabled cache still
// runs an external builder, and the cache never proves a builder's result a
// second time.
func TestCacheVerifiesInOnePlace(t *testing.T) {
	// Halving-doubling takes the first channel of each pair without checking
	// its health, so with rank 0's first partner channel dead, the raw
	// builder succeeds and Validate's link check fails.
	g := topology.FullyConnected(4, 10e9, 5*des.Microsecond)
	nodes := g.GPUs()
	g.KillChannel(g.ChannelsBetween(nodes[0], nodes[2])[0])
	bad := Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 16}
	unverified, err := build(bad)
	if err != nil {
		t.Fatalf("precondition: build: %v", err)
	}
	if err := unverified.Validate(); err == nil {
		t.Fatal("precondition: schedule over a dead channel validates")
	}

	c := NewCache()
	// A Trees override makes the config uncacheable; halving-doubling
	// ignores it.
	override := bad
	tree, _ := DoubleTrees(len(nodes))
	override.Trees = []Tree{tree}
	if _, err := c.Build(override); err == nil {
		t.Error("uncacheable built-in escaped verification")
	}
	c.SetEnabled(false)
	if _, err := c.Build(bad); err == nil {
		t.Error("built-in escaped verification with the cache disabled")
	}

	// Disabled, BuildWith runs the caller's builder; Build cannot construct
	// a synth config.
	g2 := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	synthCfg := Config{Graph: g2, Algorithm: AlgSynth, Bytes: 1 << 16, SynthKey: "v1.a"}
	if _, err := c.BuildWith(synthCfg, func() (*Schedule, error) { return assembleAllReduce2(g2) }); err != nil {
		t.Errorf("BuildWith with the cache disabled: %v", err)
	}

	// Enabled, the cache stores the builder's result as is. Only in-package
	// code can hand it an unverified schedule; external builders go through
	// Assemble, which has already verified and stamped. The cache does not
	// stamp it, so no executor runs it.
	c.SetEnabled(true)
	got, err := c.BuildWith(Config{Graph: g, Algorithm: AlgSynth, Bytes: 1 << 16, SynthKey: "v1.a"},
		func() (*Schedule, error) { return unverified, nil })
	if err != nil {
		t.Fatalf("BuildWith verified its builder's result again: %v", err)
	}
	if got != unverified || got.BuiltFingerprint() != 0 {
		t.Fatal("BuildWith did not return its builder's schedule as is")
	}
	if _, err := got.ExecuteCtx(context.Background()); !errors.Is(err, ErrUnverified) {
		t.Fatalf("executing an unverified cached schedule: got %v, want ErrUnverified", err)
	}
}

func TestCacheClear(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()
	s1, err := c.Build(cacheTestConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("Clear left entries behind")
	}
	s2, err := c.Build(cacheTestConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("cleared cache returned the old schedule")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats after Clear = %d/%d, want 0 hits / 1 miss", hits, misses)
	}
}

// TestCacheMemo: Memo keeps one value per graph, fingerprint,
// participants, algorithm and synthesis key, whatever the size or chunk
// count; a health change misses; a disabled cache builds every time and
// keeps nothing; Clear drops every value; and fingerprint churn keeps at
// most memoCapacity values.
func TestCacheMemo(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()
	builds := 0
	build := func() (any, error) {
		builds++
		return builds, nil
	}
	cfg := Config{Graph: g, Algorithm: AlgSynth, SynthKey: "k", Bytes: 1 << 20}
	memo := func(cfg Config) any {
		t.Helper()
		v, err := c.Memo(cfg, build)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := memo(cfg); v != 1 {
		t.Fatalf("first Memo = %v, want the first build", v)
	}
	resized := cfg
	resized.Bytes, resized.Chunks = 7<<20, 12
	if v := memo(resized); v != 1 || builds != 1 {
		t.Fatalf("Memo at another size = %v after %d builds, want the kept value", v, builds)
	}
	for name, other := range map[string]Config{
		"synth key":    {Graph: g, Algorithm: AlgSynth, SynthKey: "other"},
		"participants": {Graph: g, Algorithm: AlgSynth, SynthKey: "k", Nodes: g.GPUs()[:4]},
		"graph":        {Graph: topology.DGX1(topology.DefaultDGX1Config()), Algorithm: AlgSynth, SynthKey: "k"},
	} {
		before := builds
		if memo(other); builds != before+1 {
			t.Fatalf("a Memo with another %s did not build", name)
		}
	}
	before := builds
	if _, err := c.Memo(cfg, func() (any, error) { return nil, errors.New("planted") }); err != nil || builds != before {
		t.Fatal("a kept value was rebuilt")
	}
	g.DegradeChannel(0, 2)
	if _, err := c.Memo(cfg, func() (any, error) { return nil, errors.New("planted") }); err == nil {
		t.Fatal("a health change was served the value of the old fingerprint")
	}
	c.SetEnabled(false)
	before = builds
	memo(cfg)
	memo(cfg)
	c.SetEnabled(true)
	if builds != before+2 {
		t.Fatalf("a disabled cache built %d times for two calls", builds-before)
	}
	if v := memo(cfg); v != builds {
		t.Fatal("a disabled cache kept a value")
	}
	c.Clear()
	if c.memoLRU.Len() != 0 || len(c.memo) != 0 {
		t.Fatalf("Clear left %d values", c.memoLRU.Len())
	}
	for i := range 2 * memoCapacity {
		g.DegradeChannel(0, float64(2+i))
		memo(cfg)
	}
	if c.memoLRU.Len() != memoCapacity || len(c.memo) != memoCapacity {
		t.Fatalf("fingerprint churn left %d values, want the bound %d", c.memoLRU.Len(), memoCapacity)
	}
}

// TestCacheResizeAllocations pins what a same-shape miss costs on the
// cluster:64 C-Cube schedule (16,256 transfers): a header, the new size's
// partition, the LRU entry and the participant list — a dozen small
// allocations, never a copy of the ~0.7 MB op graph. The prefix case holds
// a miss below the resident 128-chunk carrier's count, served as a header
// over its first chunks, to the same bound. The cache is warmed past its
// capacity first, so every counted miss also evicts one entry.
func TestCacheResizeAllocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chunks func(i int) int
	}{
		{"same-count", func(int) int { return 128 }},
		{"prefix", func(i int) int { return 64 + i%64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			cfg := Config{Graph: topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
				Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128, AllowSharedChannels: true}
			if _, err := c.Build(cfg); err != nil {
				t.Fatal(err)
			}
			base, i := cfg.Bytes, 0
			resize := func() {
				i = (i + 1) % (2 * DefaultCacheCapacity)
				cfg.Bytes, cfg.Chunks = base+int64(i), tc.chunks(i)
				if _, err := c.Build(cfg); err != nil {
					t.Fatal(err)
				}
			}
			for range 2 * DefaultCacheCapacity {
				resize()
			}
			_, misses := c.Stats()
			builds := misses - c.IncrementalBuilds()
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, resize)
			runtime.ReadMemStats(&after)
			if _, misses = c.Stats(); misses-c.IncrementalBuilds() != builds {
				t.Fatal("a resize ran a full build")
			}
			if allocs > 12 {
				t.Errorf("a miss allocates %.0f times, want <= 12", allocs)
			}
			if per := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); per > 16<<10 {
				t.Errorf("a miss allocates %d bytes, want <= 16 KiB (no op-graph copy)", per)
			}
		})
	}
}

// schedulesEqual deep-compares two schedules' content, ignoring the
// fingerprint stamp (both sides are expected to be stamped identically
// anyway when built on the same graph).
func schedulesEqual(a, b *Schedule) bool {
	return a.Graph == b.Graph && reflect.DeepEqual(a.Nodes, b.Nodes) &&
		reflect.DeepEqual(a.Partition, b.Partition) &&
		a.InOrder == b.InOrder && a.Streams == b.Streams && a.Contract == b.Contract &&
		reflect.DeepEqual(a.ops, b.ops) && reflect.DeepEqual(a.depOff, b.depOff) && reflect.DeepEqual(a.deps, b.deps)
}

// TestIncrementalMatchesFullBuild pins the same-shape header's equivalence
// claim for every built-in algorithm: a miss served by a header over a
// resident op graph must be deep-equal to a from-scratch build at the new
// size, and must share that op graph rather than copy it. The prefix/
// subtests pin the prefix header's: on the overlapped built-ins (DGX-1 and
// cluster:64) and a forest, every chunk count k up to the carrier's 128 is
// a header over the carrier's first chunks, deep-equal to a cold build,
// running identically, with the carrier's bytes counted once (prefixCases).
// The derived/ subtests pin the derived schedule's: on the separated tree
// and double tree (DGX-1, fc:8, fc:16, cluster:32, cluster:64, shared
// channels or not), every chunk count k from the stream count up to the
// carrier's 128 is derived from the carrier, deep-equal to a cold build,
// running identically and summing correctly (derivedCases, checkDerived).
func TestIncrementalMatchesFullBuild(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	cases := []struct {
		name string
		base Config
	}{
		{"ring", Config{Graph: g, Algorithm: AlgRing, Bytes: 1 << 20}},
		{"halving-doubling", Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 20}},
		{"double-tree-overlap", Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}},
		{"double-tree", Config{Graph: g, Algorithm: AlgDoubleTree, Bytes: 1 << 20, Chunks: 6}},
		{"tree-overlap", Config{Graph: g, Algorithm: AlgTreeOverlap, Bytes: 1 << 20, Chunks: 7}},
		{"tree", Config{Graph: g, Algorithm: AlgTree, Bytes: 1 << 20, Chunks: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			base, err := c.Build(tc.base)
			if err != nil {
				t.Fatal(err)
			}

			resized := tc.base
			resized.Bytes = tc.base.Bytes + 3<<19 // same shape, ragged chunk sizes
			header, err := c.Build(resized)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.IncrementalBuilds(); got != 1 {
				t.Fatalf("IncrementalBuilds = %d, want 1 (the resident op graph should serve the new size)", got)
			}
			if !sharesOpGraph(header, base) {
				t.Fatal("the header does not share the resident op graph")
			}
			full, err := Build(resized)
			if err != nil {
				t.Fatal(err)
			}
			if !schedulesEqual(header, full) {
				t.Fatal("header differs from a full build at the new size")
			}
			if header.BuiltFingerprint() != g.Fingerprint() {
				t.Fatal("header unstamped")
			}
			rh, err := header.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rf, err := full.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rh.Total != rf.Total {
				t.Fatalf("header executes in %v, full build in %v", rh.Total, rf.Total)
			}
		})
	}
	for _, pc := range prefixCases(t) {
		t.Run("prefix/"+pc.name, func(t *testing.T) { checkPrefixes(t, pc) })
	}
	for _, dc := range derivedCases() {
		t.Run("derived/"+dc.name, func(t *testing.T) { checkDerived(t, dc.cfg) })
	}
}

// sharesOpGraph reports whether a and b are headers over one op graph: the
// same ops and dependency CSR arrays, not equal copies.
func sharesOpGraph(a, b *Schedule) bool {
	return &a.ops[0] == &b.ops[0] && &a.depOff[0] == &b.depOff[0] &&
		len(a.ops) == len(b.ops) && len(a.deps) == len(b.deps) &&
		(len(a.deps) == 0 || &a.deps[0] == &b.deps[0])
}

// TestIncrementalMatchesResolvedChunks: auto-chunked trees resolve their
// chunk count from the size (KOpt), so two resident sizes of one request
// shape can hold different op graphs. A third size is served from the one
// whose resolved count it shares, without building anything.
func TestIncrementalMatchesResolvedChunks(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	cfg := func(bytes int64) Config {
		return Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: bytes} // auto chunks
	}
	resolved := func(bytes int64) int {
		c := cfg(bytes)
		part, err := c.partition(c.nodes())
		if err != nil {
			t.Fatal(err)
		}
		return part.NumChunks()
	}
	small, large, third := int64(1<<20), int64(64<<20), int64(64<<20+12345)
	if resolved(small) == resolved(large) || resolved(third) != resolved(large) {
		t.Fatalf("resolved chunks %d, %d, %d: want the first to differ and the last two equal",
			resolved(small), resolved(large), resolved(third))
	}

	c := NewCache()
	builds := 0
	build := func(bytes int64) *Schedule {
		t.Helper()
		s, err := c.BuildWith(cfg(bytes), func() (*Schedule, error) {
			builds++
			s, err := Build(cfg(bytes))
			if err != nil {
				return nil, err
			}
			return s, s.Validate()
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	build(small)
	sib := build(large)
	if builds != 2 || c.IncrementalBuilds() != 0 {
		t.Fatalf("builds = %d, incremental = %d after two shapes, want 2 and 0", builds, c.IncrementalBuilds())
	}
	// Exercise the lookup repeatedly: a scan over resident entries that
	// matched the requested chunk count (0) could return either sibling.
	for i := int64(0); i < 8; i++ {
		s := build(third + i)
		if builds != 2 {
			t.Fatalf("size %d ran a build; the resident sibling with its resolved chunk count should serve it", third+i)
		}
		if got := c.IncrementalBuilds(); got != uint64(i+1) {
			t.Fatalf("IncrementalBuilds = %d, want %d", got, i+1)
		}
		if !sharesOpGraph(s, sib) {
			t.Fatalf("size %d does not share its sibling's ops and dependency CSR", third+i)
		}
	}
}

// TestCacheRetainsOneOpGraphPerShape: two sizes of one shape hold one op
// graph between them, counted once by RetainedBytes, and evicting both
// drops the graph from the shape index.
func TestCacheRetainsOneOpGraphPerShape(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()
	c.capacity = 2
	tree := Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	a, err := c.Build(tree)
	if err != nil {
		t.Fatal(err)
	}
	tree.Bytes += 777
	if _, err := c.Build(tree); err != nil {
		t.Fatal(err)
	}
	if got, want := c.RetainedBytes(), opGraphBytes(a); got != want || len(c.shapes) != 1 {
		t.Fatalf("two sizes retain %d bytes in %d shapes, want one op graph of %d", got, len(c.shapes), want)
	}
	key := c.key(tree).shape(anyChunks, 0) // a prefix carrier, indexed without its chunk count
	if c.shapes[key] == nil || c.shapes[key].refs != 2 {
		t.Fatal("the shape index does not hold the op graph both sizes reference")
	}

	// Two ring sizes of another shape push both tree entries out.
	ring := Config{Graph: g, Algorithm: AlgRing, Bytes: 1 << 20}
	r, err := c.Build(ring)
	if err != nil {
		t.Fatal(err)
	}
	ring.Bytes += 777
	if _, err := c.Build(ring); err != nil {
		t.Fatal(err)
	}
	if c.Evictions() != 2 {
		t.Fatalf("Evictions = %d, want both tree sizes evicted", c.Evictions())
	}
	if c.shapes[key] != nil || len(c.shapes) != 1 {
		t.Fatal("evicting every size of a shape left its op graph in the shape index")
	}
	if got, want := c.RetainedBytes(), opGraphBytes(r); got != want {
		t.Fatalf("RetainedBytes = %d after the evictions, want the ring's %d", got, want)
	}
	c.Clear()
	if c.RetainedBytes() != 0 || len(c.shapes) != 0 {
		t.Fatal("Clear kept op graphs")
	}
}

// TestIncrementalSkipsShapeChanges: when the resize changes the chunk count
// (auto-chunked trees pick K from the message size), no resident op graph
// matches and the miss falls through to a full build.
func TestIncrementalSkipsShapeChanges(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()
	base := Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20} // auto chunks
	s1, err := c.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	big := base
	big.Bytes = 64 << 20
	s2, err := c.Build(big)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Partition.NumChunks() == s2.Partition.NumChunks() {
		t.Skip("KOpt picked the same chunk count; shape-change case not exercised")
	}
	if got := c.IncrementalBuilds(); got != 0 {
		t.Fatalf("IncrementalBuilds = %d, want 0 across a chunk-count change", got)
	}
	if err := s2.Validate(); err != nil {
		t.Fatalf("full build after a shape change invalid: %v", err)
	}
}

// TestCacheHitAllocationFree pins the warm-path lookup contract the bench
// gate enforces: a hit with default participants allocates nothing.
func TestCacheHitAllocationFree(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()
	cfg := cacheTestConfig(g)
	if _, err := c.Build(cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Build(cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("warm cache hit allocates %.1f/op, want 0", allocs)
	}
}

// TestCachesShareABuilderResult: a builder may return a schedule another
// cache holds. Each cache then counts the op graph once, with a record of
// its own: runs lower each record's skeleton for its own cache, and
// evicting from one leaves the other's count as it was. Concurrent runs
// and requests through both caches keep the counts exact (run it with
// -race).
func TestCachesShareABuilderResult(t *testing.T) {
	a, b := NewCache(), NewCache()
	cfg := Config{Graph: dgx1(), Algorithm: AlgTree, Bytes: 1 << 20, Chunks: 16}
	sa, err := a.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.BuildWith(cfg, func() (*Schedule, error) { return a.Build(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if sb.g == sa.g || sb.g.cache.Load() != b || sa.g.cache.Load() != a || !sharesOpGraph(sb, sa) || !schedulesEqual(sb, sa) {
		t.Fatal("the second cache does not hold the schedule's op graph with a record of its own")
	}
	bytes := opGraphBytes(sa)
	if a.RetainedBytes() != bytes || b.RetainedBytes() != bytes || b.IncrementalBuilds() != 0 {
		t.Fatalf("RetainedBytes = %d and %d, want the op graph's %d in each", a.RetainedBytes(), b.RetainedBytes(), bytes)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				for _, s := range []*Schedule{sa, sb} {
					if _, err := s.ExecuteCtx(ctx); err != nil {
						t.Error(err)
						return
					}
				}
				if s, err := b.Build(cfg); err != nil || s != sb {
					t.Error("a second request missed the second cache's entry")
					return
				}
				at := cfg
				at.Bytes += int64(1 + w)
				if _, err := a.Build(at); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ska, skb := sa.g.sk.Load(), sb.g.sk.Load()
	if ska == nil || skb == nil || ska == skb {
		t.Fatal("the two records were not lowered apart")
	}
	if got, want := a.RetainedBytes(), bytes+ska.bytes(); got != want {
		t.Fatalf("first cache: RetainedBytes = %d, want %d", got, want)
	}
	if got, want := b.RetainedBytes(), bytes+skb.bytes(); got != want {
		t.Fatalf("second cache: RetainedBytes = %d, want %d", got, want)
	}
	a.Clear()
	if got, want := b.RetainedBytes(), bytes+skb.bytes(); a.RetainedBytes() != 0 || got != want {
		t.Fatalf("after clearing the first cache: RetainedBytes = %d and %d, want 0 and %d", a.RetainedBytes(), got, want)
	}
}
