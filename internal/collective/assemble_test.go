package collective

import (
	"context"
	"slices"
	"strings"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// specOp is one op of an assembled spec with its dependencies.
type specOp struct {
	op   schedcheck.Op
	deps []int
}

// xfer is an assembled transfer of chunk c over channel ch between node
// buffers, overwriting or accumulating; final >= 0 marks the chunk ready there.
func xfer(ch topology.ChannelID, c int, from, to topology.NodeID, acc bool, final topology.NodeID, deps ...int) specOp {
	return specOp{schedcheck.Op{Channel: int32(ch), Chunk: int32(c), Src: schedcheck.NodeBuf(from),
		Dst: schedcheck.NodeBuf(to), Accumulate: acc, Final: int32(final)}, deps}
}

// marker is an assembled zero-cost join marking chunk c ready at final.
func marker(c int, final topology.NodeID, deps ...int) specOp {
	return specOp{schedcheck.Op{Channel: -1, Chunk: int32(c), Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(),
		Final: int32(final)}, deps}
}

// withOps returns spec holding ops, split into its Ops and Deps.
func withOps(spec AssembleSpec, ops ...specOp) AssembleSpec {
	for _, o := range ops {
		spec.Ops = append(spec.Ops, o.op)
		spec.Deps = append(spec.Deps, o.deps)
	}
	return spec
}

// assembleAllReduce2 hand-assembles the minimal two-node allreduce: reduce
// 0->1, root-ready marker, broadcast 1->0.
func assembleAllReduce2(g *topology.Graph) (*Schedule, error) {
	nodes := g.GPUs()
	up := g.ChannelsBetween(nodes[0], nodes[1])[0]
	down := g.ChannelsBetween(nodes[1], nodes[0])[0]
	return Assemble(withOps(AssembleSpec{
		Graph:     g,
		Nodes:     nodes,
		Partition: chunk.Split(1<<16, 1),
		InOrder:   true,
		Streams:   1,
		Contract:  ContractAllReduce,
	},
		xfer(up, 0, nodes[0], nodes[1], true, -1),
		marker(0, nodes[1], 0),
		xfer(down, 0, nodes[1], nodes[0], false, nodes[0], 1),
	))
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
// op's deps land in the schedule's one CSR, which holds nothing else.
func TestAssembleMovesDepsIntoArena(t *testing.T) {
	g := topology.FullyConnected(2, 10e9, 5*des.Microsecond)
	s, err := assembleAllReduce2(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CSRError(); err != nil {
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
	fromRelay := xfer(ch, 0, nodes[0], nodes[1], false, -1)
	fromRelay.op.Src = schedcheck.RelayBuf(0)
	cases := []struct {
		name string
		ops  []specOp
	}{
		{"forward dep", []specOp{xfer(ch, 0, nodes[0], nodes[1], false, -1, 1)}},
		{"self dep", []specOp{xfer(ch, 0, nodes[0], nodes[1], false, -1, 0)}},
		{"chunk out of range", []specOp{xfer(ch, 3, nodes[0], nodes[1], false, -1)}},
		{"relay forward reference", []specOp{fromRelay}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Assemble(withOps(base(), tc.ops...)); err == nil {
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
		ops   []specOp
	}{
		{"channel does not connect its endpoints", "link", []specOp{
			xfer(wrong, 0, nodes[0], nodes[1], false, -1),
		}},
		// The minimal two-node allreduce with the reduction turned into an
		// overwrite: node 1 loses its own contribution.
		{"ops do not conserve the data", "conservation", []specOp{
			xfer(up, 0, nodes[0], nodes[1], false, -1),
			marker(0, nodes[1], 0),
			xfer(down, 0, nodes[1], nodes[0], false, nodes[0], 1),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(withOps(AssembleSpec{
				Graph:     g,
				Nodes:     nodes[:2],
				Partition: chunk.Split(1<<16, 1),
				Streams:   1,
				Contract:  ContractAllReduce,
			}, tc.ops...))
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

// TestCacheSynthSkipsSiblingPatch: a synth entry at one size must never
// serve another size as a same-shape header — the compiler's plan search is
// size-dependent, so the shape cannot be assumed to carry over.
func TestCacheSynthSkipsSiblingPatch(t *testing.T) {
	g := topology.DGX1(topology.DefaultDGX1Config())
	c := NewCache()

	// Built-in baseline: a same-shape header serves the new size.
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
		t.Fatalf("builds = %d, want 2: synth entries must not serve other sizes", builds)
	}
	if c.IncrementalBuilds() != 1 {
		t.Fatalf("IncrementalBuilds = %d, want still 1 after synth builds", c.IncrementalBuilds())
	}
}

// TestMalformedRoutedTreesRejected: OverlappedChunk and AssembleForest lay
// out only routed trees whose every edge has a route each way, whose
// participant count matches, and whose links and walk orders agree; a
// malformed tree is an error, never a send with no ops or a read of another
// participant's hop slot. The base is DGX-1 tree 1, whose 2->4 edge detours.
func TestMalformedRoutedTreesRejected(t *testing.T) {
	g := dgx1()
	nodes := g.GPUs()
	t1, _ := DGX1Trees()
	base, err := assignRoutes(g, nodes, t1, topology.NewRouter(g), false)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(rt RoutedTree) RoutedTree {
		rt.Parent = slices.Clone(rt.Parent)
		rt.Children = slices.Clone(rt.Children)
		rt.Up, rt.Down = slices.Clone(rt.Up), slices.Clone(rt.Down)
		rt.Order, rt.ReduceOrder = slices.Clone(rt.Order), slices.Clone(rt.ReduceOrder)
		return rt
	}
	leaf := base.ReduceOrder[0]
	cases := []struct {
		name  string
		nodes []topology.NodeID
		edit  func(rt *RoutedTree)
	}{
		{"empty up route", nodes, func(rt *RoutedTree) { rt.Up[leaf] = topology.Route{} }},
		{"empty down route", nodes, func(rt *RoutedTree) { rt.Down[2] = topology.Route{} }},
		{"too few participants", nodes[:7], func(*RoutedTree) {}},
		{"too many participants", append(slices.Clone(nodes), nodes[0]), func(*RoutedTree) {}},
		{"route at the root", nodes, func(rt *RoutedTree) { rt.Up[rt.Root] = rt.Up[leaf] }},
		{"second root", nodes, func(rt *RoutedTree) { rt.Parent[leaf] = -1 }},
		{"child of the wrong parent", nodes, func(rt *RoutedTree) { rt.Children[rt.Root] = append(slices.Clone(rt.Children[rt.Root]), leaf) }},
		{"child listed twice in place of its sibling", nodes, func(rt *RoutedTree) {
			kids := rt.Children[rt.Root] // two in tree 1
			rt.Children[rt.Root] = []int{kids[0], kids[0]}
		}},
		{"child left out", nodes, func(rt *RoutedTree) { rt.Children[rt.Parent[leaf]] = nil }},
		{"broadcast children first", nodes, func(rt *RoutedTree) { slices.Reverse(rt.Order) }},
		{"reduce parents first", nodes, func(rt *RoutedTree) { rt.ReduceOrder = slices.Clone(rt.Order) }},
		{"order repeats a participant", nodes, func(rt *RoutedTree) { rt.Order[len(rt.Order)-1] = rt.Order[1] }},
	}
	part := chunk.Split(1<<20, 4)
	if _, err := OverlappedChunk(nodes, base); err != nil {
		t.Fatalf("OverlappedChunk rejected the base tree: %v", err)
	}
	if _, err := AssembleForest(g, nodes, part, []RoutedTree{base}); err != nil {
		t.Fatalf("AssembleForest rejected the base tree: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := clone(base)
			tc.edit(&rt)
			if _, err := OverlappedChunk(tc.nodes, rt); err == nil {
				t.Error("OverlappedChunk accepted a malformed routed tree")
			}
			if _, err := AssembleForest(g, tc.nodes, part, []RoutedTree{base, rt}); err == nil {
				t.Error("AssembleForest accepted a malformed routed tree")
			}
		})
	}
	for name, call := range map[string]func() error{
		"nil graph": func() error { _, err := AssembleForest(nil, nodes, part, []RoutedTree{base}); return err },
		"no trees":  func() error { _, err := AssembleForest(g, nodes, part, nil); return err },
		"too few chunks": func() error {
			_, err := AssembleForest(g, nodes, chunk.Split(1<<20, 1), []RoutedTree{base, base})
			return err
		},
	} {
		if call() == nil {
			t.Errorf("AssembleForest accepted %s", name)
		}
	}
}
