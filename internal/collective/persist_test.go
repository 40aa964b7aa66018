package collective

import (
	"context"
	"os"
	"reflect"
	"sync"
	"testing"

	"ccube/internal/collective/store"
	"ccube/internal/topology"
)

func openStoreT(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// schedulesEqual deep-compares two schedules' content, ignoring the
// fingerprint stamp (both sides are expected to be stamped identically
// anyway when built on the same graph).
func schedulesEqual(a, b *Schedule) bool {
	return a.Graph == b.Graph && reflect.DeepEqual(a.Nodes, b.Nodes) &&
		reflect.DeepEqual(a.Partition, b.Partition) &&
		a.InOrder == b.InOrder && a.Streams == b.Streams && a.Contract == b.Contract &&
		reflect.DeepEqual(a.ops, b.ops)
}

var codecConfigs = []struct {
	name string
	cfg  func(g *topology.Graph) Config
}{
	{"ring", func(g *topology.Graph) Config {
		return Config{Graph: g, Algorithm: AlgRing, Bytes: 1 << 20}
	}},
	{"halving-doubling", func(g *topology.Graph) Config {
		return Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 20}
	}},
	{"double-tree-overlap", func(g *topology.Graph) Config {
		return Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	}},
	{"double-tree-auto-chunks", func(g *topology.Graph) Config {
		return Config{Graph: g, Algorithm: AlgDoubleTree, Bytes: 4 << 20}
	}},
	{"tree-shared", func(g *topology.Graph) Config {
		return Config{Graph: g, Algorithm: AlgTreeOverlap, Bytes: 1 << 20, Chunks: 6, AllowSharedChannels: true}
	}},
	{"explicit-nodes", func(g *topology.Graph) Config {
		return Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8, Nodes: g.GPUs()}
	}},
}

// TestScheduleCodecRoundTrip pins encode→decode as the identity on every
// algorithm family, and that the decoded schedule passes verify-on-load and
// executes to the same timing.
func TestScheduleCodecRoundTrip(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	for _, tc := range codecConfigs {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := Build(tc.cfg(g))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := decodeSchedule(encodeSchedule(orig), g)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !schedulesEqual(orig, dec) {
				t.Fatal("decoded schedule differs from the original")
			}
			if err := dec.Validate(); err != nil {
				t.Fatalf("verify-on-load: %v", err)
			}
			ro, err := orig.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rd, err := dec.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatalf("executing decoded schedule: %v", err)
			}
			if ro.Total != rd.Total {
				t.Fatalf("decoded schedule times %v, original %v", rd.Total, ro.Total)
			}
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	orig, err := Build(cacheTestConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	valid := encodeSchedule(orig)

	t.Run("empty", func(t *testing.T) {
		if _, err := decodeSchedule(nil, g); err == nil {
			t.Fatal("decoded empty payload")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		// Every prefix must fail cleanly — error, never panic.
		for n := 0; n < len(valid); n += 7 {
			if _, err := decodeSchedule(valid[:n], g); err == nil {
				t.Fatalf("decoded a %d-byte prefix of a %d-byte payload", n, len(valid))
			}
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Flipped bytes may still decode (the store's checksum guards the
		// payload in production); here we only require no panic, and that
		// any schedule that does decode then fails verify-on-load or
		// differs from the original.
		for i := 0; i < len(valid); i += 11 {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x2a
			s, err := decodeSchedule(mut, g)
			if err != nil {
				continue
			}
			if schedulesEqual(orig, s) {
				continue // flip landed in a don't-care position
			}
			_ = s.Validate() // must not panic; outcome irrelevant
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		if _, err := decodeSchedule(append(append([]byte(nil), valid...), 0), g); err == nil {
			t.Fatal("decoded payload with trailing bytes")
		}
	})
}

// TestStoreWarmStart is the end-to-end warm-start contract: one cache
// populates a store directory; a second cache — fresh process state, same
// topology content rebuilt from scratch — starts warm from it, re-verifies
// on load, and the loaded schedule executes identically.
func TestStoreWarmStart(t *testing.T) {
	st := openStoreT(t)

	gCold := topology.DGX1(topology.DefaultDGX1Config())
	cold := NewCache()
	cold.SetStore(st)
	sCold, err := cold.Build(cacheTestConfig(gCold))
	if err != nil {
		t.Fatal(err)
	}
	rCold, err := sCold.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Writes != 1 || got.Hits != 0 {
		t.Fatalf("cold run store stats = %+v, want 1 write / 0 hits", got)
	}

	// "New process": fresh cache, fresh graph (same content, new pointer),
	// fresh store handle on the same directory.
	st2, err := store.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	gWarm := topology.DGX1(topology.DefaultDGX1Config())
	warm := NewCache()
	warm.SetStore(st2)
	sWarm, err := warm.Build(cacheTestConfig(gWarm))
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.Hits != 1 || got.Misses != 0 || got.Writes != 0 {
		t.Fatalf("warm run store stats = %+v, want pure hit", got)
	}
	if sWarm.Graph != gWarm {
		t.Fatal("loaded schedule not re-bound to the live graph")
	}
	if sWarm.BuiltFingerprint() != gWarm.Fingerprint() {
		t.Fatal("loaded schedule not stamped against the live topology")
	}
	if !schedulesEqual(sCold, &Schedule{Graph: sCold.Graph, Nodes: sWarm.Nodes, Partition: sWarm.Partition,
		InOrder: sWarm.InOrder, Streams: sWarm.Streams, Contract: sWarm.Contract, ops: sWarm.ops}) {
		t.Fatal("loaded schedule content differs from the built one")
	}
	rWarm, err := sWarm.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatalf("executing store-loaded schedule: %v", err)
	}
	if rCold.Total != rWarm.Total {
		t.Fatalf("store-loaded schedule times %v, built %v", rWarm.Total, rCold.Total)
	}

	// Memory level still fronts the disk: a second warm build is a memory
	// hit, no store traffic.
	again, err := warm.Build(cacheTestConfig(gWarm))
	if err != nil {
		t.Fatal(err)
	}
	if again != sWarm {
		t.Fatal("second warm build did not come from the memory level")
	}
	if got := st2.Stats(); got.Hits != 1 {
		t.Fatalf("memory hit leaked to the store: %+v", got)
	}
}

// TestStoreCorruptEntryRebuilds proves the cache path (not just the store)
// handles corruption: a damaged entry is counted, deleted, and the build
// silently falls through to a fresh construction — never an error, never an
// unverified schedule.
func TestStoreCorruptEntryRebuilds(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())

	damage := []struct {
		name string
		do   func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-2] ^= 0x10
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			st := openStoreT(t)
			seed := NewCache()
			seed.SetStore(st)
			if _, err := seed.Build(cacheTestConfig(g)); err != nil {
				t.Fatal(err)
			}

			key, ok := StoreKey(cacheTestConfig(g))
			if !ok {
				t.Fatal("cacheTestConfig not cacheable")
			}
			d.do(t, st.EntryPath(key))

			st.ResetStats()
			fresh := NewCache()
			fresh.SetStore(st)
			s, err := fresh.Build(cacheTestConfig(g))
			if err != nil {
				t.Fatalf("build over corrupt entry: %v", err)
			}
			if s.BuiltFingerprint() != g.Fingerprint() {
				t.Fatal("rebuilt schedule unstamped")
			}
			got := st.Stats()
			if got.Corrupt != 1 {
				t.Fatalf("store stats = %+v, want exactly 1 corrupt", got)
			}
			if got.Hits != 0 {
				t.Fatalf("store stats = %+v, want no hits (corrupt entry must not hit)", got)
			}
			if _, err := os.Stat(st.EntryPath(key)); err != nil {
				t.Fatal("corrupt entry was not rewritten by the rebuild's write-through")
			}
			// The rewritten entry is usable again.
			st.ResetStats()
			warm := NewCache()
			warm.SetStore(st)
			if _, err := warm.Build(cacheTestConfig(g)); err != nil {
				t.Fatal(err)
			}
			if got := st.Stats(); got.Hits != 1 {
				t.Fatalf("rebuilt entry did not hit: %+v", got)
			}
		})
	}
}

// TestStoreVerifyOnLoadCatchesTamperedPayload plants an entry whose record
// is checksum-valid and decodes cleanly but whose schedule is semantically
// wrong (a transfer rerouted over an unrelated physical channel). Only the
// verify-on-load proof can catch this class; the cache must invalidate the
// entry and rebuild.
func TestStoreVerifyOnLoadCatchesTamperedPayload(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	cfg := cacheTestConfig(g)
	orig, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	bad := orig.clone()
	rerouted := false
	for i := range bad.ops {
		tr := &bad.ops[i]
		if tr.Marker() {
			continue
		}
		ch := bad.Graph.Channel(tr.Channel)
		for cid := 0; cid < bad.Graph.NumChannels(); cid++ {
			cand := bad.Graph.Channel(topology.ChannelID(cid))
			if cand.From != ch.From || cand.To != ch.To {
				tr.Channel = topology.ChannelID(cid)
				rerouted = true
				break
			}
		}
		if rerouted {
			break
		}
	}
	if !rerouted {
		t.Fatal("could not construct a rerouted transfer")
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("tampered schedule passes verification; test premise broken")
	}

	st := openStoreT(t)
	key, ok := StoreKey(cfg)
	if !ok {
		t.Fatal("config not cacheable")
	}
	if err := st.Put(key, encodeSchedule(bad)); err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	c.SetStore(st)
	s, err := c.Build(cfg)
	if err != nil {
		t.Fatalf("build over tampered entry: %v", err)
	}
	if !schedulesEqual(orig, s) {
		t.Fatal("cache returned a schedule differing from a fresh build")
	}
	got := st.Stats()
	if got.Corrupt != 1 || got.Hits != 0 {
		t.Fatalf("store stats = %+v, want the tampered entry reclassified corrupt", got)
	}
}

// TestStoreConcurrentCaches runs two caches sharing one store directory
// under concurrent load (run with -race): mixed keys, overlapping writes.
func TestStoreConcurrentCaches(t *testing.T) {
	dir := t.TempDir()
	g := topology.DGX1(topology.DefaultDGX1Config())

	mkCache := func() *Cache {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		c.SetStore(st)
		return c
	}
	caches := []*Cache{mkCache(), mkCache()}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := caches[w%2]
			for i := 0; i < 8; i++ {
				cfg := Config{
					Graph:     g,
					Algorithm: []Algorithm{AlgRing, AlgDoubleTreeOverlap, AlgHalvingDoubling}[(w+i)%3],
					Bytes:     int64(1<<18) << ((w + i) % 2),
					Chunks:    8,
				}
				s, err := c.Build(cfg)
				if err != nil {
					t.Errorf("concurrent build: %v", err)
					return
				}
				if s.BuiltFingerprint() != g.Fingerprint() {
					t.Error("concurrent build returned unstamped schedule")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Whatever landed on disk must be loadable by a third fresh cache.
	c := mkCache()
	if _, err := c.Build(Config{Graph: g, Algorithm: AlgRing, Bytes: 1 << 18, Chunks: 8}); err != nil {
		t.Fatal(err)
	}
	if st := c.Store().Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent writers corrupted the store: %+v", st)
	}
}

// TestIncrementalMatchesFullBuild pins the incremental patch path's
// equivalence claim: a same-shape miss served by patching a cached sibling
// must be deep-equal to a from-scratch build at the new size.
func TestIncrementalMatchesFullBuild(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	cases := []struct {
		name string
		base Config
	}{
		{"ring", Config{Graph: g, Algorithm: AlgRing, Bytes: 1 << 20}},
		{"halving-doubling", Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 20}},
		{"double-tree-overlap", Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}},
		{"tree", Config{Graph: g, Algorithm: AlgTree, Bytes: 1 << 20, Chunks: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			if _, err := c.Build(tc.base); err != nil {
				t.Fatal(err)
			}

			resized := tc.base
			resized.Bytes = tc.base.Bytes + 3<<19 // same shape, ragged chunk sizes
			patched, err := c.Build(resized)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.IncrementalBuilds(); got != 1 {
				t.Fatalf("IncrementalBuilds = %d, want 1 (sibling should have been patched)", got)
			}
			full, err := Build(resized)
			if err != nil {
				t.Fatal(err)
			}
			if !schedulesEqual(patched, full) {
				t.Fatal("patched schedule differs from a full build at the new size")
			}
			if patched.BuiltFingerprint() != g.Fingerprint() {
				t.Fatal("patched schedule unstamped")
			}
			rp, err := patched.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rf, err := full.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rp.Total != rf.Total {
				t.Fatalf("patched executes in %v, full build in %v", rp.Total, rf.Total)
			}
		})
	}
}

// TestIncrementalSkipsShapeChanges: when the resize changes the chunk count
// (auto-chunked trees pick K from the message size), the patch path must
// decline and fall through to a full build.
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
		t.Fatalf("full build after declined patch invalid: %v", err)
	}
}

// TestCacheHitAllocationFree pins the warm-path lookup contract the bench
// gate enforces: a memory-level hit with default participants allocates
// nothing, store or no store attached.
func TestCacheHitAllocationFree(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()
	c.SetStore(openStoreT(t))
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
