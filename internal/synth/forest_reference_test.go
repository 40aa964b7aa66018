package synth

import (
	"fmt"
	"slices"
	"sort"

	"ccube/internal/collective"
	"ccube/internal/topology"
)

// This file keeps the forest packer as it was before its pair index and
// memoized routes: every attachment step rescans each candidate pair's
// channels and, for a pair with no free direct channel, every relay GPU.
// TestPackForestMatchesReference and FuzzPackForest hold one greedy pass of
// PackForest's search (packRotation) to it forest for forest.

// refPackForest packs up to `want` channel-disjoint spanning trees over the
// participants, ForestColl-style: each tree grows greedily by the
// maximum-bottleneck attachment (effective bandwidth, so degraded links are
// naturally avoided), dead channels are never used, and a stranded
// participant may be spliced in over a two-hop detour through another GPU
// (unless allowDetour is false). Packing stops at the first tree that
// cannot span; at least one tree must span or refPackForest errors. seed
// rotates the root sequence, making distinct seeds distinct packings.
func refPackForest(g *topology.Graph, nodes []topology.NodeID, want int, seed int64, allowDetour bool) (*Forest, error) {
	n := len(nodes)
	if n < 2 {
		return nil, fmt.Errorf("synth: %d participants", n)
	}
	if want < 1 {
		want = 1
	}
	pk := newRefPacker(g, nodes, allowDetour)

	// Root order: participants by descending healthy egress bandwidth,
	// rotated by the seed so different seeds explore different packings.
	roots := refRootOrder(g, nodes)
	if seed != 0 {
		off := int(seed%int64(n)+int64(n)) % n
		roots = append(roots[off:], roots[:off]...)
	}

	f := &Forest{}
	for ti := 0; ti < want; ti++ {
		t := pk.refPackTree(roots[ti%n])
		if t == nil {
			break
		}
		f.Trees = append(f.Trees, t)
		f.Detours += t.Detours
	}
	if len(f.Trees) == 0 {
		return nil, fmt.Errorf("synth: participants are not connected by healthy channels; no spanning tree exists")
	}
	return f, nil
}

// refRootOrder sorts participant indexes by descending total healthy effective
// egress bandwidth (ties by index): high-capacity nodes make the best roots
// and attract the first trees.
func refRootOrder(g *topology.Graph, nodes []topology.NodeID) []int {
	n := len(nodes)
	egress := make([]float64, n)
	for i, id := range nodes {
		for _, ch := range g.Out(id) {
			if c := g.Channel(ch); !c.Down() {
				egress[i] += c.EffectiveBandwidth()
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return egress[order[a]] > egress[order[b]] })
	return order
}

// refPacker is the state of one refPackForest call.
type refPacker struct {
	g           *topology.Graph
	nodes       []topology.NodeID
	allowDetour bool
	claimed     []bool                 // by channel id: taken by a tree so far
	out         [][]topology.ChannelID // by participant: g.Out of its node, looked up once
}

func newRefPacker(g *topology.Graph, nodes []topology.NodeID, allowDetour bool) *refPacker {
	pk := &refPacker{g: g, nodes: nodes, allowDetour: allowDetour,
		claimed: make([]bool, g.NumChannels()), out: make([][]topology.ChannelID, len(nodes))}
	for i, id := range nodes {
		pk.out[i] = g.Out(id)
	}
	return pk
}

// refPath is a route of one or two channels, held by value so that comparing
// candidate attachments allocates nothing.
type refPath struct {
	ch   [2]topology.ChannelID
	hops int
}

func (p refPath) route() topology.Route {
	return topology.Route{Channels: append([]topology.ChannelID(nil), p.ch[:p.hops]...)}
}

// refAttachment is one candidate way to connect participant v to the growing
// tree under participant u.
type refAttachment struct {
	v, u  int
	up    refPath // nodes[v] -> nodes[u]
	down  refPath // nodes[u] -> nodes[v]
	score float64 // bottleneck effective bandwidth (halved for detours)
	hops  int     // total physical hops across both routes
}

// refPackTree grows one spanning tree from root with Prim-style greedy
// maximum-bottleneck attachments over unclaimed healthy channels. On
// success every channel the tree uses is marked claimed; on failure the
// tree's provisional claims are rolled back and nil is returned.
func (pk *refPacker) refPackTree(root int) *Tree {
	n := len(pk.nodes)
	t := &Tree{RoutedTree: collective.RoutedTree{
		Tree:  collective.Tree{Root: root, Parent: make([]int, n), Children: make([][]int, n)},
		Up:    make([]topology.Route, n),
		Down:  make([]topology.Route, n),
		Order: make([]int, 0, n),
	}}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	inTree := make([]bool, n)
	depth := make([]int, n)
	inTree[root] = true
	t.Order = append(t.Order, root)

	var mine []topology.ChannelID // this tree's claims, for rollback
	claim := func(p refPath) {
		for _, ch := range p.ch[:p.hops] {
			pk.claimed[ch] = true
			mine = append(mine, ch)
		}
	}

	for len(t.Order) < n {
		best, ok := pk.refBestAttachment(inTree, depth, t)
		if !ok {
			for _, ch := range mine {
				pk.claimed[ch] = false
			}
			return nil
		}
		claim(best.up)
		claim(best.down)
		v, u := best.v, best.u
		t.Parent[v] = u
		t.Children[u] = append(t.Children[u], v)
		t.Up[v] = best.up.route()
		t.Down[v] = best.down.route()
		depth[v] = depth[u] + 1
		inTree[v] = true
		t.Order = append(t.Order, v)
		if best.up.hops > 1 {
			t.Detours++
		}
		if best.down.hops > 1 {
			t.Detours++
		}
		if t.Bottleneck == 0 || best.score < t.Bottleneck {
			t.Bottleneck = best.score
		}
	}
	t.ReduceOrder = slices.Clone(t.Order)
	slices.Reverse(t.ReduceOrder)
	return t
}

// refBestAttachment scans every (outside v, inside u) pair for the best
// attachment. The up (v->u) and down (u->v) routes are found independently —
// each direct when an unclaimed channel exists, else relay-spliced through a
// third GPU when detours are allowed — so an edge whose fabric is exhausted
// in one direction can still attach by detouring just that direction.
// Preference order: maximum bottleneck bandwidth (detoured routes score half
// — the relay carries the payload twice), then fewest physical hops, then
// balanced shallow trees (smallest children-count+depth of u), then
// smallest ids.
func (pk *refPacker) refBestAttachment(inTree []bool, depth []int, t *Tree) (refAttachment, bool) {
	var best refAttachment
	found := false
	balance := func(u int) int { return len(t.Children[u]) + depth[u] }
	better := func(c refAttachment) bool {
		if !found {
			return true
		}
		if c.score != best.score {
			return c.score > best.score
		}
		if c.hops != best.hops {
			return c.hops < best.hops
		}
		if bu, cu := balance(best.u), balance(c.u); bu != cu {
			return cu < bu
		}
		if c.v != best.v {
			return c.v < best.v
		}
		return c.u < best.u
	}

	for v := range pk.nodes {
		if inTree[v] {
			continue
		}
		for u := range pk.nodes {
			if !inTree[u] {
				continue
			}
			up, upBW, ok := pk.refBestRouteDir(v, u)
			if !ok {
				continue
			}
			down, dnBW, ok := pk.refBestRouteDir(u, v)
			if !ok {
				continue
			}
			c := refAttachment{
				v: v, u: u, up: up, down: down,
				score: min2(upBW, dnBW),
				hops:  up.hops + down.hops,
			}
			if better(c) {
				best, found = c, true
			}
		}
	}
	return best, found
}

// refBestRouteDir finds the best usable route from participant `from` to
// participant `to`: the highest-bandwidth unclaimed direct channel when one
// exists, else (when detours are allowed) the best two-hop splice through
// another GPU, scored at half its bottleneck bandwidth because the relay
// moves the payload twice. Up- and down-routes of one attachment can never
// collide: every hop is a directed (src, dst) pair and the two routes
// traverse opposite directions.
func (pk *refPacker) refBestRouteDir(from, to int) (refPath, float64, bool) {
	if ch, bw, ok := pk.refBestChannel(from, to); ok {
		return refPath{ch: [2]topology.ChannelID{ch}, hops: 1}, bw, true
	}
	if !pk.allowDetour {
		return refPath{}, 0, false
	}
	var best refPath
	bestBW := 0.0
	for m := range pk.nodes {
		if m == from || m == to {
			continue
		}
		h1, bw1, ok := pk.refBestChannel(from, m)
		if !ok {
			continue
		}
		h2, bw2, ok := pk.refBestChannel(m, to)
		if !ok {
			continue
		}
		if bw := min2(bw1, bw2) / 2; best.hops == 0 || bw > bestBW {
			best = refPath{ch: [2]topology.ChannelID{h1, h2}, hops: 2}
			bestBW = bw
		}
	}
	return best, bestBW, best.hops > 0
}

// refBestChannel picks the highest-effective-bandwidth channel from
// participant a to participant b that is neither claimed nor dead (ties to
// the lowest id, for determinism).
func (pk *refPacker) refBestChannel(a, b int) (topology.ChannelID, float64, bool) {
	bestID := topology.ChannelID(-1)
	bestBW := 0.0
	for _, ch := range pk.out[a] {
		c := pk.g.Channel(ch)
		if c.To != pk.nodes[b] || pk.claimed[ch] || c.Down() {
			continue
		}
		bw := c.EffectiveBandwidth()
		if bestID < 0 || bw > bestBW {
			bestID, bestBW = ch, bw
		}
	}
	return bestID, bestBW, bestID >= 0
}
