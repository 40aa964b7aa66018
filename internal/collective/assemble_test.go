package collective

import (
	"context"
	"strings"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// xfer is an assembled transfer of chunk c over channel ch between node
// buffers, overwriting or accumulating; final >= 0 marks the chunk ready there.
func xfer(ch topology.ChannelID, c int, bytes int64, from, to topology.NodeID, acc bool, final topology.NodeID, deps ...int) schedcheck.Op {
	return schedcheck.Op{Channel: ch, Chunk: c, Bytes: bytes, Src: schedcheck.NodeBuf(from), Dst: schedcheck.NodeBuf(to),
		Accumulate: acc, Final: final, Deps: deps}
}

// marker is an assembled zero-cost join marking chunk c ready at final.
func marker(c int, final topology.NodeID, deps ...int) schedcheck.Op {
	return schedcheck.Op{Channel: -1, Chunk: c, Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(), Final: final, Deps: deps}
}

// assembleAllReduce2 hand-assembles the minimal two-node allreduce: reduce
// 0->1, root-ready marker, broadcast 1->0.
func assembleAllReduce2(g *topology.Graph) (*Schedule, error) {
	nodes := g.GPUs()
	up := g.ChannelsBetween(nodes[0], nodes[1])[0]
	down := g.ChannelsBetween(nodes[1], nodes[0])[0]
	return Assemble(AssembleSpec{
		Graph:     g,
		Nodes:     nodes,
		Partition: chunk.Split(1<<16, 1),
		InOrder:   true,
		Streams:   1,
		Contract:  ContractAllReduce,
		Ops: []schedcheck.Op{
			xfer(up, 0, 1<<16, nodes[0], nodes[1], true, -1),
			marker(0, nodes[1], 0),
			xfer(down, 0, 1<<16, nodes[1], nodes[0], false, nodes[0], 1),
		},
	})
}

func TestAssembleMinimalAllReduce(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	s, err := assembleAllReduce2(g)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if s.BuiltFingerprint() != g.Fingerprint() {
		t.Fatal("assembled schedule was not stamped against the topology")
	}
	if err := s.VerifyDeep(); err != nil {
		t.Fatalf("VerifyDeep: %v", err)
	}
	res, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatalf("ExecuteCtx: %v", err)
	}
	if res.Total <= 0 {
		t.Fatalf("Total = %s, want > 0", res.Total)
	}
	if !res.InOrder {
		t.Error("single-stream FIFO schedule lost its in-order proof")
	}
}

// Assemble adopts the caller's ops but never their deps storage: every
// op's deps land in the schedule's one arena, which holds nothing else.
func TestAssembleMovesDepsIntoArena(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	s, err := assembleAllReduce2(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ArenaError(); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleRejectsMalformedSpecs(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	nodes := g.GPUs()
	ch := g.ChannelsBetween(nodes[0], nodes[1])[0]
	base := func() AssembleSpec {
		return AssembleSpec{
			Graph:     g,
			Nodes:     nodes,
			Partition: chunk.Split(1<<16, 1),
			Streams:   1,
			Contract:  ContractAllReduce,
		}
	}
	fromRelay := xfer(ch, 0, 1, nodes[0], nodes[1], false, -1)
	fromRelay.Src = schedcheck.RelayBuf(0)
	cases := []struct {
		name string
		ops  []schedcheck.Op
	}{
		{"forward dep", []schedcheck.Op{xfer(ch, 0, 1, nodes[0], nodes[1], false, -1, 1)}},
		{"self dep", []schedcheck.Op{xfer(ch, 0, 1, nodes[0], nodes[1], false, -1, 0)}},
		{"chunk out of range", []schedcheck.Op{xfer(ch, 3, 1, nodes[0], nodes[1], false, -1)}},
		{"relay forward reference", []schedcheck.Op{fromRelay}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			spec.Ops = tc.ops
			if _, err := Assemble(spec); err == nil {
				t.Fatal("Assemble accepted a malformed spec")
			}
		})
	}
}

// Assemble verifies before it returns: specs whose indexes are all valid but
// whose semantics are wrong never yield a schedule.
func TestAssembleRejectsUnverifiableSpec(t *testing.T) {
	g := topology.FullyConnected(3, 10e9, 5*des.Microsecond)
	nodes := g.GPUs()
	up := g.ChannelsBetween(nodes[0], nodes[1])[0]
	down := g.ChannelsBetween(nodes[1], nodes[0])[0]
	wrong := g.ChannelsBetween(nodes[1], nodes[2])[0] // does not touch node 0
	cases := []struct {
		name  string
		class string // the verifier class that must reject the spec
		ops   []schedcheck.Op
	}{
		{"channel does not connect its endpoints", "link", []schedcheck.Op{
			xfer(wrong, 0, 1<<16, nodes[0], nodes[1], false, -1),
		}},
		// The minimal two-node allreduce with the reduction turned into an
		// overwrite: node 1 loses its own contribution.
		{"ops do not conserve the data", "conservation", []schedcheck.Op{
			xfer(up, 0, 1<<16, nodes[0], nodes[1], false, -1),
			marker(0, nodes[1], 0),
			xfer(down, 0, 1<<16, nodes[1], nodes[0], false, nodes[0], 1),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(AssembleSpec{
				Graph:     g,
				Nodes:     nodes[:2],
				Partition: chunk.Split(1<<16, 1),
				Streams:   1,
				Contract:  ContractAllReduce,
				Ops:       tc.ops,
			})
			if err == nil {
				t.Fatal("Assemble returned a schedule the verifier rejects")
			}
			if !strings.Contains(err.Error(), tc.class) {
				t.Fatalf("err = %v, want a %s violation", err, tc.class)
			}
		})
	}
}

// TestCacheSynthKeySeparates: configs that differ only in SynthKey occupy
// distinct cache entries, and the same SynthKey hits.
func TestCacheSynthKeySeparates(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	c := NewCache()
	builds := 0
	builder := func() (*Schedule, error) {
		builds++
		return assembleAllReduce2(g)
	}
	cfg := func(key string) Config {
		return Config{Graph: g, Algorithm: AlgSynth, Bytes: 1 << 16, SynthKey: key}
	}

	a, err := c.BuildWith(cfg("v1.a"), builder)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.BuildWith(cfg("v1.b"), builder)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2: distinct SynthKeys must not alias", builds)
	}
	if a == b {
		t.Fatal("distinct SynthKeys returned the same schedule object")
	}
	again, err := c.BuildWith(cfg("v1.a"), builder)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 || again != a {
		t.Fatalf("same SynthKey missed the cache (builds = %d)", builds)
	}
	if again.BuiltFingerprint() == 0 {
		t.Fatal("BuildWith schedule was not stamped against topology staleness")
	}
}

// TestCacheSynthSkipsSiblingPatch: a synth entry at one size must never be
// byte-rescaled into another size — the compiler's plan search is
// size-dependent, so the shape cannot be assumed to carry over.
func TestCacheSynthSkipsSiblingPatch(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()

	// Built-in baseline: sibling patching fires across sizes.
	if _, err := c.Build(cacheTestConfig(g)); err != nil {
		t.Fatal(err)
	}
	big := cacheTestConfig(g)
	big.Bytes = 2 << 20
	if _, err := c.Build(big); err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 1 {
		t.Fatalf("IncrementalBuilds = %d, want 1 for the built-in sibling", c.IncrementalBuilds())
	}

	// Synth: same shape change must go back through the builder.
	g2 := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	builds := 0
	builder := func() (*Schedule, error) {
		builds++
		return assembleAllReduce2(g2)
	}
	for _, bytes := range []int64{1 << 16, 1 << 18} {
		if _, err := c.BuildWith(Config{
			Graph: g2, Algorithm: AlgSynth, Bytes: bytes, SynthKey: "v1.a",
		}, builder); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2: synth entries must not be sibling-patched", builds)
	}
	if c.IncrementalBuilds() != 1 {
		t.Fatalf("IncrementalBuilds = %d, want still 1 after synth builds", c.IncrementalBuilds())
	}
}

// TestStoreKeyIncludesSynth: the on-disk content address grows a /sy=
// component exactly when the key carries a synthesis fingerprint, keeping
// every pre-synth warm store valid.
func TestStoreKeyIncludesSynth(t *testing.T) {
	k := cacheKey{fp: 42, alg: AlgRing, bytes: 1 << 20, chunks: 8}
	plain := storeKey(k)
	if strings.Contains(plain, "/sy=") {
		t.Fatalf("built-in store key %q grew a synth component", plain)
	}
	k.synth = "v1.t4"
	withSynth := storeKey(k)
	if !strings.HasSuffix(withSynth, "/sy=v1.t4") {
		t.Fatalf("synth store key %q lacks the /sy= component", withSynth)
	}
	k.synth = "v1.t8"
	if other := storeKey(k); other == withSynth {
		t.Fatal("distinct synth fingerprints share a store key")
	}
}
