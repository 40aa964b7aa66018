package collective

import (
	"context"
	"errors"
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

// Verification happens in one place per builder — Cache.Build's built-in
// builder runs Validate, Assemble runs it for external builders — and the
// cache only stamps. So a disabled cache and a Trees override verify
// built-ins too, a disabled cache still runs an external builder, and the
// cache never proves a builder's result a second time.
func TestCacheVerifiesInOnePlace(t *testing.T) {
	// Halving-doubling takes the first channel of each pair without checking
	// its health, so with rank 0's first partner channel dead, Build succeeds
	// and Validate's link check fails.
	g := topology.FullyConnected(4, 10e9, 5*des.Microsecond)
	nodes := g.GPUs()
	g.KillChannel(g.ChannelsBetween(nodes[0], nodes[2])[0])
	bad := Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 16}
	unverified, err := Build(bad)
	if err != nil {
		t.Fatalf("precondition: Build: %v", err)
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

	// Enabled, the cache stamps and stores the builder's result as is. Only
	// in-package code can hand it an unverified schedule; external builders
	// go through Assemble, which has already verified.
	c.SetEnabled(true)
	got, err := c.BuildWith(Config{Graph: g, Algorithm: AlgSynth, Bytes: 1 << 16, SynthKey: "v1.a"},
		func() (*Schedule, error) { return unverified, nil })
	if err != nil {
		t.Fatalf("BuildWith verified its builder's result again: %v", err)
	}
	if got != unverified || got.BuiltFingerprint() != g.Fingerprint() {
		t.Fatal("BuildWith did not stamp and return its builder's schedule")
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
