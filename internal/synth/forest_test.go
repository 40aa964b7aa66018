package synth

import (
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
