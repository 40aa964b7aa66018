package collective

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ccube/internal/collective/store"
	"ccube/internal/des"
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
		reflect.DeepEqual(a.ops, b.ops) && reflect.DeepEqual(a.depOff, b.depOff) && reflect.DeepEqual(a.deps, b.deps)
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
			if _, err := dec.adopt(); err != nil {
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

// TestDecodeRejectsValuesWiderThanInt32: the op record and its CSR hold
// int32 chunks, channels, nodes, relay slots, finals and deps, so a wider
// value on the wire is an error, never truncated (channel 1<<40 would
// truncate to channel 0, dep 1<<33 to op 0).
func TestDecodeRejectsValuesWiderThanInt32(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, des.Microsecond)
	// payload is a two-op schedule: a transfer 0->1 over channel ch and a
	// marker depending on dep that makes the chunk final at node 1.
	payload := func(ch, dep int64) []byte {
		v := binary.AppendVarint
		u := binary.AppendUvarint
		buf := u(nil, schedCodecVersion)
		buf = v(u(buf, 2), 0)
		buf = v(buf, 1)
		buf = v(u(v(buf, 1<<20), 1), 1<<20)
		buf = u(v(u(buf, 0), 1), uint64(ContractGeneric))
		buf = u(u(buf, 2), 1)
		buf = v(v(v(buf, 0), 1<<20), ch)
		buf = v(v(v(v(u(buf, 0), 0), -1), 1), -1)
		buf = v(u(buf, 0), -1)
		buf = v(v(v(buf, 0), 0), -1)
		buf = v(u(buf, 1), dep)
		buf = v(v(v(v(buf, -1), -1), -1), -1)
		return v(u(buf, 0), 1)
	}
	if _, err := decodeSchedule(payload(0, 0), g); err != nil {
		t.Fatalf("the in-range payload does not decode: %v", err)
	}
	for _, tc := range []struct {
		name     string
		ch, dep  int64
		wantText string
	}{
		{"channel 1<<40", 1 << 40, 0, "channel 1099511627776 does not fit in int32"},
		{"dep 1<<33", 0, 1 << 33, "dep 8589934592 does not fit in int32"},
	} {
		_, err := decodeSchedule(payload(tc.ch, tc.dep), g)
		if err == nil || !strings.Contains(err.Error(), tc.wantText) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantText)
		}
	}
}

// storedPayloads are the committed store payloads: a chunk-major C-Cube
// schedule and halving-doubling on the DGX-1, with the Totals they run in.
func storedPayloads(g *topology.Graph) []struct {
	name  string
	cfg   Config
	total des.Time
} {
	return []struct {
		name  string
		cfg   Config
		total des.Time
	}{
		{"dgx1-ccube", Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}, 90662},
		{"dgx1-halving", Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 20}, 91388},
	}
}

// TestDecodeStoredV2Payloads: payloads written under codec version 2,
// before the overlapped built-ins were laid out chunk-major, are refused.
// Under their own v2 address a cache never reads them, and planted under
// the current address the decoder rejects their version and drops them as
// corrupt. Either way the request is a miss that builds afresh.
func TestDecodeStoredV2Payloads(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	for _, tc := range storedPayloads(g) {
		t.Run("codec-v2-"+tc.name+".bin", func(t *testing.T) {
			payload, err := os.ReadFile(filepath.Join("testdata", "codec-v2-"+tc.name+".bin"))
			if err != nil {
				t.Fatal(err)
			}
			key, ok := StoreKey(tc.cfg)
			if !ok {
				t.Fatal("config not cacheable")
			}
			if !strings.HasPrefix(key, "ccs/v3/") {
				t.Fatalf("store key %q does not carry codec version 3", key)
			}
			for _, at := range []string{strings.Replace(key, "ccs/v3/", "ccs/v2/", 1), key} {
				st := openStoreT(t)
				if err := st.Put(at, payload); err != nil {
					t.Fatal(err)
				}
				c := NewCache()
				c.SetStore(st)
				s, err := c.Build(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantCorrupt := uint64(0)
				if at == key {
					wantCorrupt = 1
				}
				if got := st.Stats(); got.Hits != 0 || got.Corrupt != wantCorrupt {
					t.Fatalf("under %q: store stats = %+v, want no hit and %d corrupt", at, got, wantCorrupt)
				}
				full, err := Build(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !schedulesEqual(s, full) {
					t.Fatalf("under %q: the miss did not build the current schedule", at)
				}
			}
		})
	}
}

// TestDecodeStoredV3Payloads loads the committed codec version 3 payloads
// through a cache's verify-on-load, re-encodes them to their own bytes, and
// executes them to the Totals they had when they were written. Rewrite them
// with -update only after a deliberate codec or layout change.
func TestDecodeStoredV3Payloads(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	for _, tc := range storedPayloads(g) {
		file := "codec-v3-" + tc.name + ".bin"
		t.Run(file, func(t *testing.T) {
			path := filepath.Join("testdata", file)
			if *update {
				s, err := Build(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, encodeSchedule(s), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			payload, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st := openStoreT(t)
			key, ok := StoreKey(tc.cfg)
			if !ok {
				t.Fatal("config not cacheable")
			}
			if err := st.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			c := NewCache()
			c.SetStore(st)
			s, err := c.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Stats(); got.Hits != 1 || got.Corrupt != 0 {
				t.Fatalf("store stats = %+v, want the stored payload loaded and verified", got)
			}
			if !bytes.Equal(encodeSchedule(s), payload) {
				t.Error("the loaded schedule does not re-encode to its payload")
			}
			r, err := s.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if r.Total != tc.total {
				t.Errorf("Total = %d, want %d", r.Total, tc.total)
			}
		})
	}
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
		InOrder: sWarm.InOrder, Streams: sWarm.Streams, Contract: sWarm.Contract, ops: sWarm.ops,
		depOff: sWarm.depOff, deps: sWarm.deps}) {
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
		ch := bad.Graph.Channel(tr.ChannelID())
		for cid := 0; cid < bad.Graph.NumChannels(); cid++ {
			cand := bad.Graph.Channel(topology.ChannelID(cid))
			if cand.From != ch.From || cand.To != ch.To {
				tr.Channel = int32(cid)
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
