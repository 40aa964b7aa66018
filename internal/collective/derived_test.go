package collective

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ccube/internal/topology"
)

// derivedCase is one phase-prefix carrier shape, built at cfg.
type derivedCase struct {
	name string
	cfg  Config
}

// derivedCases returns the separated tree and double tree at 128 chunks on
// the DGX-1, fc:8, fc:16, cluster:32 and cluster:64, with and without
// shared channels, wherever the schedule builds.
func derivedCases() []derivedCase {
	var out []derivedCase
	for _, f := range []struct {
		name string
		g    *topology.Graph
	}{
		{"dgx1", dgx1()},
		{"fc8", topology.FullyConnected(8, topology.NVLinkBandwidth, topology.NVLinkLatency)},
		{"fc16", topology.FullyConnected(16, topology.NVLinkBandwidth, topology.NVLinkLatency)},
		{"cluster32", topology.Hierarchy(topology.DefaultHierarchyConfig(32))},
		{"cluster64", topology.Hierarchy(topology.DefaultHierarchyConfig(64))},
	} {
		for _, alg := range []Algorithm{AlgTree, AlgDoubleTree} {
			for _, shared := range []bool{false, true} {
				cfg := Config{Graph: f.g, Algorithm: alg, Bytes: 64 << 20, Chunks: 128, AllowSharedChannels: shared}
				if _, err := build(cfg); err == nil {
					out = append(out, derivedCase{fmt.Sprintf("%s/%v/shared=%v", f.name, alg, shared), cfg})
				}
			}
		}
	}
	return out
}

// checkDerived builds cfg's carrier in a fresh cache, then every k-chunk
// schedule from the stream count to the carrier's at k extra bytes, so each
// is a new key. Below the carrier's count each must be derived from it:
// its own copy, deep-equal to a cold build (ops, dependency CSR, stamp,
// Streams, InOrder), running to the identical Result and summing its
// inputs under ExecuteData; RetainedBytes must grow by the copy's bytes
// alone. At the carrier's count it must be a header over the carrier.
func checkDerived(t *testing.T, cfg Config) {
	c := NewCache()
	carrier, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	K := carrier.Partition.NumChunks()
	if g := c.shapes[c.key(cfg).shape(anyChunks, 0)]; g == nil || g.s != carrier || g.phases == nil {
		t.Fatal("the carrier is not indexed as a phase-prefix carrier")
	}
	retained := c.RetainedBytes()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(K)))
	for k := carrier.Streams; k <= K; k++ {
		at := cfg
		at.Chunks, at.Bytes = k, cfg.Bytes+int64(k)
		before := c.IncrementalBuilds()
		d, err := c.Build(at)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if c.IncrementalBuilds() != before+1 {
			t.Fatalf("k=%d: not served from the carrier", k)
		}
		if shares := sharesOpGraph(d, carrier); shares != (k == K) {
			t.Fatalf("k=%d: shares the carrier's op graph = %v", k, shares)
		}
		if k < K {
			retained += opGraphBytes(d)
		}
		if got := c.RetainedBytes(); got != retained {
			t.Fatalf("k=%d: RetainedBytes = %d, want the carrier once plus each derived op graph, %d", k, got, retained)
		}
		cold, err := Build(at)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !schedulesEqual(d, cold) || d.BuiltFingerprint() != cold.BuiltFingerprint() {
			t.Fatalf("k=%d: the derived schedule differs from a cold build", k)
		}
		rd, err := d.ExecuteCtx(ctx)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		rc, err := cold.ExecuteCtx(ctx)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(rd, rc) {
			t.Fatalf("k=%d: the derived schedule runs in %v, a cold build in %v", k, rd.Total, rc.Total)
		}
		checkAllReduceData(t, d, rng, 2*K)
	}
}

// TestDerivedHoldsCarrier: a derived schedule's entry holds its carrier
// resident after the carrier's own entry is evicted, so further chunk
// counts are still derived rather than built; another size of a derived
// chunk count is a header over the derived op graph, and another size of
// the carrier's count one over the carrier. Evicting every entry over
// them drops both from the shape index and from RetainedBytes.
func TestDerivedHoldsCarrier(t *testing.T) {
	g := dgx1()
	c := NewCache()
	c.capacity = 2
	cfg := Config{Graph: g, Algorithm: AlgDoubleTree, Bytes: 1 << 20, Chunks: 32}
	carrier, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := c.key(cfg).shape(anyChunks, 0)
	at := func(k int, extra int64) Config {
		a := cfg
		a.Chunks, a.Bytes = k, cfg.Bytes+extra
		return a
	}
	d, err := c.Build(at(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Another size of the derived count: a header over the derived graph.
	// It pushes the carrier's own entry out.
	h, err := c.Build(at(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 2 || !sharesOpGraph(h, d) || sharesOpGraph(d, carrier) {
		t.Fatal("a second size of a derived chunk count was not a header over the derived op graph")
	}
	if c.Evictions() != 1 || c.shapes[key] == nil || c.shapes[key].s != carrier {
		t.Fatal("the carrier left the shape index while a derived schedule holds it")
	}
	if got, want := c.RetainedBytes(), opGraphBytes(carrier)+opGraphBytes(d); got != want {
		t.Fatalf("RetainedBytes = %d, want the carrier's and the derived graph's %d", got, want)
	}
	// The carrier still serves: its own count as a header, others derived.
	full, err := c.Build(at(32, 3))
	if err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 3 || !sharesOpGraph(full, carrier) {
		t.Fatal("another size of the carrier's chunk count was not a header over it")
	}
	e, err := c.Build(at(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Build(at(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 4 || !schedulesEqual(e, cold) {
		t.Fatal("a new chunk count was not derived from the resident carrier")
	}
	// Two ring sizes push every tree entry out.
	ring := Config{Graph: g, Algorithm: AlgRing, Bytes: 1 << 20}
	r, err := c.Build(ring)
	if err != nil {
		t.Fatal(err)
	}
	ring.Bytes++
	if _, err := c.Build(ring); err != nil {
		t.Fatal(err)
	}
	if len(c.shapes) != 1 {
		t.Fatalf("the shape index holds %d graphs after every tree entry left, want the ring's alone", len(c.shapes))
	}
	if got, want := c.RetainedBytes(), opGraphBytes(r); got != want {
		t.Fatalf("RetainedBytes = %d, want the ring's %d", got, want)
	}
}

// TestDerivedConcurrent derives from one carrier in several goroutines at
// once, each asking for chunk counts and sizes of its own while a small
// capacity evicts entries under them (run it with -race): every schedule
// must equal a cold build, and RetainedBytes must count exactly the op
// graphs the remaining entries hold, each carrier once.
func TestDerivedConcurrent(t *testing.T) {
	g := dgx1()
	c := NewCache()
	c.capacity = 8
	cfg := Config{Graph: g, Algorithm: AlgDoubleTree, Bytes: 1 << 20, Chunks: 48}
	if _, err := c.Build(cfg); err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 24
	type built struct {
		s  *Schedule
		at Config
	}
	got := make([][]built, workers)
	errs := make(chan error, workers)
	for w := range workers {
		go func() {
			rng := rand.New(rand.NewSource(int64(w)))
			for range each {
				at := cfg
				at.Chunks, at.Bytes = 2+rng.Intn(47), cfg.Bytes+int64(rng.Intn(4))
				s, err := c.Build(at)
				if err != nil {
					errs <- err
					return
				}
				got[w] = append(got[w], built{s, at})
			}
			errs <- nil
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, bs := range got {
		for _, b := range bs {
			cold, err := Build(b.at)
			if err != nil {
				t.Fatal(err)
			}
			if !schedulesEqual(b.s, cold) {
				t.Fatalf("%d chunks: a concurrently derived schedule differs from a cold build", b.at.Chunks)
			}
		}
	}
	held := map[*opGraph]bool{}
	for _, el := range c.entries {
		for g := el.Value.(*lruEntry).s.g; g != nil; g = g.carrier {
			held[g] = true
		}
	}
	var want int64
	for g := range held {
		want += g.bytes
	}
	if got := c.RetainedBytes(); got != want {
		t.Fatalf("RetainedBytes = %d, want the %d op graphs the entries hold, %d", got, len(held), want)
	}
}

// TestCacheEvict: Evict drops one entry, counting no eviction, and its op
// graph leaves the shape index with it, so the next request of that key
// misses and, for a chunk count below a resident carrier's, derives again.
func TestCacheEvict(t *testing.T) {
	c := NewCache()
	cfg := Config{Graph: dgx1(), Algorithm: AlgTree, Bytes: 1 << 20, Chunks: 16}
	if _, err := c.Build(cfg); err != nil {
		t.Fatal(err)
	}
	retained := c.RetainedBytes()
	cfg.Chunks = 5
	for i := range 2 {
		if _, err := c.Build(cfg); err != nil {
			t.Fatal(err)
		}
		if c.Len() != 2 || c.IncrementalBuilds() != uint64(i+1) {
			t.Fatalf("request %d: %d entries, %d derived, want 2 and %d", i, c.Len(), c.IncrementalBuilds(), i+1)
		}
		c.Evict(cfg)
		if c.Len() != 1 || c.Evictions() != 0 || c.RetainedBytes() != retained || len(c.shapes) != 1 {
			t.Fatalf("request %d: Evict left %d entries, %d evictions, %d retained bytes in %d shapes",
				i, c.Len(), c.Evictions(), c.RetainedBytes(), len(c.shapes))
		}
	}
}
