package synth

import (
	"math/rand"
	"reflect"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

const testLat = 5 * des.Microsecond

func fc(n int) *topology.Graph { return topology.FullyConnected(n, 10e9, testLat) }
func dgx1() *topology.Graph    { return topology.DGX1(topology.DefaultDGX1Config()) }
func rr16() *topology.Graph    { return topology.RandomRegular(16, 4, 10e9, testLat, 1) }
func asymFC8() *topology.Graph { return topology.AsymmetricFullyConnected(8, 10e9, testLat, 1) }

// checkForest asserts the packing invariants: every tree spans the
// participants, and no physical channel is claimed twice — neither across
// trees nor within one.
func checkForest(t *testing.T, g *topology.Graph, nodes []topology.NodeID, f *Forest) {
	t.Helper()
	claimed := map[topology.ChannelID]int{}
	for ti, tr := range f.Trees {
		if len(tr.Order) != len(nodes) {
			t.Fatalf("tree %d spans %d of %d participants", ti, len(tr.Order), len(nodes))
		}
		roots := 0
		for v := range nodes {
			if tr.Parent[v] < 0 {
				roots++
				if v != tr.Root {
					t.Fatalf("tree %d: node %d has no parent but root is %d", ti, v, tr.Root)
				}
				continue
			}
			for _, rt := range []topology.Route{tr.Up[v], tr.Down[v]} {
				if rt.Hops() == 0 {
					t.Fatalf("tree %d: node %d has an empty route", ti, v)
				}
				for _, ch := range rt.Channels {
					if prev, dup := claimed[ch]; dup {
						t.Fatalf("channel %d claimed twice: tree %d and tree %d", ch, prev, ti)
					}
					claimed[ch] = ti
					if g.Channel(ch).Down() {
						t.Fatalf("tree %d uses dead channel %d", ti, ch)
					}
				}
			}
		}
		if roots != 1 {
			t.Fatalf("tree %d has %d roots", ti, roots)
		}
	}
}

func TestPackForestInvariants(t *testing.T) {
	cases := []struct {
		name  string
		graph *topology.Graph
		want  int
	}{
		{"fc4", fc(4), 4},
		{"fc8", fc(8), 4},
		{"dgx1", dgx1(), 4},
		{"rr16", rr16(), 4},
		{"asym-fc8", asymFC8(), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes := tc.graph.GPUs()
			f, err := PackForest(tc.graph, nodes, tc.want, 0, true)
			if err != nil {
				t.Fatalf("PackForest: %v", err)
			}
			if len(f.Trees) == 0 {
				t.Fatal("empty forest")
			}
			checkForest(t, tc.graph, nodes, f)
		})
	}
}

// Fully connected fabrics have enough channel diversity that the packer must
// find more than one disjoint tree — one tree would leave most of the
// fabric's bisection unused.
func TestPackForestUsesFabricDiversity(t *testing.T) {
	g := fc(8)
	f, err := PackForest(g, g.GPUs(), 4, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Trees) < 3 {
		t.Fatalf("packed %d trees on fc8, want >= 3", len(f.Trees))
	}
}

// Packing is deterministic: the same inputs claim the same channels in the
// same order, which the content-addressed cache depends on.
func TestPackForestDeterministic(t *testing.T) {
	g1, g2 := rr16(), rr16()
	f1, err1 := PackForest(g1, g1.GPUs(), 4, 3, true)
	f2, err2 := PackForest(g2, g2.GPUs(), 4, 3, true)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(f1.Trees) != len(f2.Trees) {
		t.Fatalf("tree counts differ: %d vs %d", len(f1.Trees), len(f2.Trees))
	}
	for ti := range f1.Trees {
		a, b := f1.Trees[ti], f2.Trees[ti]
		if a.Root != b.Root {
			t.Fatalf("tree %d roots differ: %d vs %d", ti, a.Root, b.Root)
		}
		for v := range a.Parent {
			if a.Parent[v] != b.Parent[v] {
				t.Fatalf("tree %d parent[%d] differs: %d vs %d", ti, v, a.Parent[v], b.Parent[v])
			}
		}
	}
}

// A dead channel never carries traffic; a degraded one is avoided whenever a
// healthy alternative exists.
func TestPackForestHealthAware(t *testing.T) {
	g := fc(8)
	nodes := g.GPUs()
	// Kill one direction between 0 and 1, degrade the other hard.
	chans := g.ChannelsBetween(nodes[0], nodes[1])
	g.KillChannel(chans[0])
	rev := g.ChannelsBetween(nodes[1], nodes[0])
	g.DegradeChannel(rev[0], 8)

	f, err := PackForest(g, nodes, 4, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkForest(t, g, nodes, f)
	for ti, tr := range f.Trees {
		for v := range nodes {
			if tr.Parent[v] < 0 {
				continue
			}
			for _, rt := range []topology.Route{tr.Up[v], tr.Down[v]} {
				for _, ch := range rt.Channels {
					if ch == rev[0] {
						t.Errorf("tree %d routes over the degraded channel despite healthy alternatives", ti)
					}
				}
			}
		}
	}
}

// A graph whose participants cannot be spanned by healthy channels is a
// packing error, not a panic or a partial forest.
func TestPackForestDisconnected(t *testing.T) {
	g := fc(4)
	nodes := g.GPUs()
	// Isolate node 3 entirely.
	for _, ch := range g.Out(nodes[3]) {
		g.KillChannel(ch)
	}
	for _, ch := range g.In(nodes[3]) {
		g.KillChannel(ch)
	}
	if _, err := PackForest(g, nodes, 2, 0, true); err == nil {
		t.Fatal("PackForest spanned a disconnected participant set")
	}
}

// detourFabric is an asymmetric three-GPU fabric where node c can reach the
// tree only by relaying its reduction through b: c's only egress is c->b,
// and only one of the two b->a channels survives the first attachment.
func detourFabric() (*topology.Graph, []topology.NodeID) {
	g := topology.NewGraph()
	a := g.AddNode("gpu0", topology.GPU)
	b := g.AddNode("gpu1", topology.GPU)
	c := g.AddNode("gpu2", topology.GPU)
	g.AddChannel(a, b, 10e9, testLat, "link")
	g.AddChannel(b, a, 10e9, testLat, "link")
	g.AddChannel(b, a, 10e9, testLat, "link")
	g.AddChannel(c, b, 10e9, testLat, "link")
	g.AddChannel(a, c, 10e9, testLat, "link")
	return g, []topology.NodeID{a, b, c}
}

// When a direction of the fabric is exhausted, packing splices that
// direction through a relay GPU and counts the detour; with detours
// disabled the same fabric cannot be spanned.
func TestPackForestDetourFallback(t *testing.T) {
	g, nodes := detourFabric()
	f, err := PackForest(g, nodes, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkForest(t, g, nodes, f)
	if f.Detours != 1 {
		t.Fatalf("Detours = %d, want 1", f.Detours)
	}
	multi := 0
	for _, tr := range f.Trees {
		for v := range nodes {
			if tr.Parent[v] < 0 {
				continue
			}
			if tr.Up[v].Hops() > 1 {
				multi++
			}
			if tr.Down[v].Hops() > 1 {
				multi++
			}
		}
	}
	if multi != 1 {
		t.Fatalf("found %d multi-hop routes, want 1", multi)
	}

	g2, nodes2 := detourFabric()
	if _, err := PackForest(g2, nodes2, 1, 0, false); err == nil {
		t.Fatal("PackForest spanned the asymmetric fabric with detours disabled")
	}
}

// packFabrics are the fabrics PackForest is compared with the reference
// packer on, each built from a graph seed: the DGX-1 (which has none), the
// asymmetric 8-GPU mesh and random 4-regular graphs of 12 and 16 GPUs.
var packFabrics = []struct {
	name  string
	graph func(seed int64) *topology.Graph
}{
	{"dgx1", func(int64) *topology.Graph { return dgx1() }},
	{"fcasym:8", func(seed int64) *topology.Graph {
		return topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, seed)
	}},
	{"rr:12", func(seed int64) *topology.Graph { return topology.RandomRegular(12, 4, 25e9, des.Microsecond, seed) }},
	{"rr:16", func(seed int64) *topology.Graph { return topology.RandomRegular(16, 4, 25e9, des.Microsecond, seed) }},
}

// samePacking fails t unless one greedy pass (packRotation) and the
// reference packer agree on g: both error with the same message, or both
// return deep-equal forests.
func samePacking(t *testing.T, g *topology.Graph, want int, seed int64, detour bool) {
	t.Helper()
	nodes := g.GPUs()
	got, gerr := packRotation(g, nodes, want, seed, detour)
	ref, rerr := refPackForest(g, nodes, want, seed, detour)
	if (gerr == nil) != (rerr == nil) || (gerr != nil && gerr.Error() != rerr.Error()) {
		t.Fatalf("want=%d seed=%d detour=%v: error %v, reference %v", want, seed, detour, gerr, rerr)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("want=%d seed=%d detour=%v: forest differs from the reference packer's", want, seed, detour)
	}
}

// channelBound is the most channel-disjoint spanning trees g's healthy
// participant-to-participant channels can hold, capped at want: every tree
// claims at least one channel up and one down per edge.
func channelBound(g *topology.Graph, nodes []topology.NodeID, want int) int {
	in := map[topology.NodeID]bool{}
	for _, id := range nodes {
		in[id] = true
	}
	links := 0
	for _, id := range nodes {
		for _, ch := range g.Out(id) {
			if c := g.Channel(ch); in[c.To] && c.To != id && !c.Down() {
				links++
			}
		}
	}
	return min(max(want, 1), links/(2*(len(nodes)-1)))
}

// sameSearch fails t unless PackForest's search on g keeps a forest that
// passes checkForest, holds at least as many trees as the seed's rotation
// packs alone and at most the channel bound, and is the same forest on a
// second call.
func sameSearch(t *testing.T, g *topology.Graph, want int, seed int64, detour bool) {
	t.Helper()
	nodes := g.GPUs()
	got, err := PackForest(g, nodes, want, seed, detour)
	first, ferr := packRotation(g, nodes, want, seed, detour)
	if err != nil {
		if ferr == nil {
			t.Fatalf("want=%d seed=%d detour=%v: the search failed (%v) where its first rotation packs %d trees", want, seed, detour, err, len(first.Trees))
		}
		return
	}
	checkForest(t, g, nodes, got)
	if ferr == nil && len(got.Trees) < len(first.Trees) {
		t.Fatalf("want=%d seed=%d detour=%v: kept %d trees, the first rotation packs %d", want, seed, detour, len(got.Trees), len(first.Trees))
	}
	if b := channelBound(g, nodes, want); len(got.Trees) > b {
		t.Fatalf("want=%d seed=%d detour=%v: %d trees over the channel bound %d", want, seed, detour, len(got.Trees), b)
	}
	again, err := PackForest(g, nodes, want, seed, detour)
	if err != nil || !reflect.DeepEqual(got, again) {
		t.Fatalf("want=%d seed=%d detour=%v: a second search kept another forest (%v)", want, seed, detour, err)
	}
}

// damage kills and degrades channels of g by the bits of two masks: bit
// i%64 of kill kills channel i, bit i%64 of degrade divides its bandwidth
// by 2 + i%7.
func damage(g *topology.Graph, kill, degrade uint64) {
	for i := 0; i < g.NumChannels(); i++ {
		ch := topology.ChannelID(i)
		if kill>>(i%64)&1 == 1 {
			g.KillChannel(ch)
		} else if degrade>>(i%64)&1 == 1 {
			g.DegradeChannel(ch, float64(2+i%7))
		}
	}
}

// TestPackForestMatchesReference: one greedy pass of the indexed packer
// (packRotation) packs byte-identical forests to the reference packer's,
// which rescans every pair at every step, and the search over passes keeps
// a forest sameSearch accepts — over every fabric and graph seed, tree
// count, packer seed and detour setting, on the pristine graph and again
// after killing and degrading a random few of its channels.
func TestPackForestMatchesReference(t *testing.T) {
	graphSeeds := 20
	if testing.Short() {
		graphSeeds = 3
	}
	for _, f := range packFabrics {
		t.Run(f.name, func(t *testing.T) {
			for gs := int64(1); gs <= int64(graphSeeds); gs++ {
				g := f.graph(gs)
				rng := rand.New(rand.NewSource(gs))
				for _, damaged := range []bool{false, true} {
					if damaged {
						// About one channel in 16 dead, one in 8 degraded.
						damage(g, rng.Uint64()&rng.Uint64()&rng.Uint64()&rng.Uint64(), rng.Uint64()&rng.Uint64()&rng.Uint64())
					}
					for _, want := range []int{1, 2, 4, 8} {
						for seed := int64(0); seed < 5; seed++ {
							for _, detour := range []bool{true, false} {
								samePacking(t, g, want, seed, detour)
								sameSearch(t, g, want, seed, detour)
							}
						}
					}
				}
				if f.name == "dgx1" {
					break // the DGX-1 has no graph seed
				}
			}
		})
	}
}

// FuzzPackForest draws a fabric, its graph seed, a tree count, a packer
// seed, the detour flag and kill and degrade masks. One greedy pass must
// agree with the reference packer, and the search must keep the forest
// sameSearch asks for.
func FuzzPackForest(f *testing.F) {
	f.Add(uint8(0), uint8(8), int64(1), int64(0), uint8(4), true, uint64(0), uint64(0))
	f.Add(uint8(1), uint8(8), int64(3), int64(2), uint8(8), true, uint64(0x8421), uint64(0x1248))
	f.Add(uint8(2), uint8(16), int64(5), int64(4), uint8(2), false, uint64(0), uint64(0xff00))
	f.Add(uint8(2), uint8(12), int64(7), int64(1), uint8(1), true, uint64(0x0101), uint64(0))
	f.Fuzz(func(t *testing.T, fabric, n uint8, graphSeed, seed int64, want uint8, detour bool, kill, degrade uint64) {
		var g *topology.Graph
		switch fabric % 3 {
		case 0:
			g = dgx1()
		case 1:
			g = topology.AsymmetricFullyConnected(2+int(n%11), 25e9, des.Microsecond, graphSeed)
		default:
			g = topology.RandomRegular(6+2*int(n%6), 4, 25e9, des.Microsecond, graphSeed)
		}
		damage(g, kill, degrade)
		samePacking(t, g, int(want%10), seed, detour)
		sameSearch(t, g, int(want%10), seed, detour)
	})
}
