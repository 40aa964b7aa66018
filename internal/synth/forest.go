package synth

import (
	"fmt"
	"sort"

	"ccube/internal/topology"
)

// Tree is one packed spanning tree over the participant set, with the
// physical routes its edges claimed. Parent/Children/Up/Down are indexed by
// participant index; Order is the attachment order (root first), so
// iterating Order gives parents-before-children and iterating it backwards
// gives children-before-parents.
type Tree struct {
	Root     int
	Parent   []int
	Children [][]int
	Order    []int
	Up       []topology.Route // child -> parent, indexed by child
	Down     []topology.Route // parent -> child, indexed by child
	// Bottleneck is the minimum effective bandwidth over every channel the
	// tree claimed (detour hops carry double traffic weight).
	Bottleneck float64
	// Detours counts edges routed through an intermediate GPU because no
	// direct unclaimed channel existed.
	Detours int
}

// Forest is a set of channel-disjoint spanning trees: no physical channel
// appears in two trees (nor twice within one), which is exactly the
// disjointness the contention proof demands from an overlapped multi-tree
// schedule.
type Forest struct {
	Trees   []*Tree
	Detours int
}

// PackForest packs up to `want` channel-disjoint spanning trees over the
// participants, ForestColl-style: each tree grows greedily by the
// maximum-bottleneck attachment (effective bandwidth, so degraded links are
// naturally avoided), dead channels are never used, and a stranded
// participant may be spliced in over a two-hop detour through another GPU
// (unless allowDetour is false). Packing stops at the first tree that
// cannot span; at least one tree must span or PackForest errors. seed
// rotates the root sequence, making distinct seeds distinct packings.
func PackForest(g *topology.Graph, nodes []topology.NodeID, want int, seed int64, allowDetour bool) (*Forest, error) {
	n := len(nodes)
	if n < 2 {
		return nil, fmt.Errorf("synth: %d participants", n)
	}
	if want < 1 {
		want = 1
	}
	pk := newPacker(g, nodes, allowDetour)

	// Root order: participants by descending healthy egress bandwidth,
	// rotated by the seed so different seeds explore different packings.
	roots := rootOrder(g, nodes)
	if seed != 0 {
		off := int(seed%int64(n)+int64(n)) % n
		roots = append(roots[off:], roots[:off]...)
	}

	f := &Forest{}
	for ti := 0; ti < want; ti++ {
		t := pk.packTree(roots[ti%n])
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

// rootOrder sorts participant indexes by descending total healthy effective
// egress bandwidth (ties by index): high-capacity nodes make the best roots
// and attract the first trees.
func rootOrder(g *topology.Graph, nodes []topology.NodeID) []int {
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

// packer is the state of one PackForest call.
type packer struct {
	g           *topology.Graph
	nodes       []topology.NodeID
	allowDetour bool
	claimed     []bool                 // by channel id: taken by a tree so far
	out         [][]topology.ChannelID // by participant: g.Out of its node, looked up once
}

func newPacker(g *topology.Graph, nodes []topology.NodeID, allowDetour bool) *packer {
	pk := &packer{g: g, nodes: nodes, allowDetour: allowDetour,
		claimed: make([]bool, g.NumChannels()), out: make([][]topology.ChannelID, len(nodes))}
	for i, id := range nodes {
		pk.out[i] = g.Out(id)
	}
	return pk
}

// path is a route of one or two channels, held by value so that comparing
// candidate attachments allocates nothing.
type path struct {
	ch   [2]topology.ChannelID
	hops int
}

func (p path) route() topology.Route {
	return topology.Route{Channels: append([]topology.ChannelID(nil), p.ch[:p.hops]...)}
}

// attachment is one candidate way to connect participant v to the growing
// tree under participant u.
type attachment struct {
	v, u  int
	up    path    // nodes[v] -> nodes[u]
	down  path    // nodes[u] -> nodes[v]
	score float64 // bottleneck effective bandwidth (halved for detours)
	hops  int     // total physical hops across both routes
}

// packTree grows one spanning tree from root with Prim-style greedy
// maximum-bottleneck attachments over unclaimed healthy channels. On
// success every channel the tree uses is marked claimed; on failure the
// tree's provisional claims are rolled back and nil is returned.
func (pk *packer) packTree(root int) *Tree {
	n := len(pk.nodes)
	t := &Tree{
		Root:     root,
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Up:       make([]topology.Route, n),
		Down:     make([]topology.Route, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	inTree := make([]bool, n)
	depth := make([]int, n)
	inTree[root] = true
	t.Order = append(t.Order, root)

	var mine []topology.ChannelID // this tree's claims, for rollback
	claim := func(p path) {
		for _, ch := range p.ch[:p.hops] {
			pk.claimed[ch] = true
			mine = append(mine, ch)
		}
	}

	for len(t.Order) < n {
		best, ok := pk.bestAttachment(inTree, depth, t)
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
	return t
}

// bestAttachment scans every (outside v, inside u) pair for the best
// attachment. The up (v->u) and down (u->v) routes are found independently —
// each direct when an unclaimed channel exists, else relay-spliced through a
// third GPU when detours are allowed — so an edge whose fabric is exhausted
// in one direction can still attach by detouring just that direction.
// Preference order: maximum bottleneck bandwidth (detoured routes score half
// — the relay carries the payload twice), then fewest physical hops, then
// balanced shallow trees (smallest children-count+depth of u), then
// smallest ids.
func (pk *packer) bestAttachment(inTree []bool, depth []int, t *Tree) (attachment, bool) {
	var best attachment
	found := false
	balance := func(u int) int { return len(t.Children[u]) + depth[u] }
	better := func(c attachment) bool {
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
			up, upBW, ok := pk.bestRouteDir(v, u)
			if !ok {
				continue
			}
			down, dnBW, ok := pk.bestRouteDir(u, v)
			if !ok {
				continue
			}
			c := attachment{
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

// bestRouteDir finds the best usable route from participant `from` to
// participant `to`: the highest-bandwidth unclaimed direct channel when one
// exists, else (when detours are allowed) the best two-hop splice through
// another GPU, scored at half its bottleneck bandwidth because the relay
// moves the payload twice. Up- and down-routes of one attachment can never
// collide: every hop is a directed (src, dst) pair and the two routes
// traverse opposite directions.
func (pk *packer) bestRouteDir(from, to int) (path, float64, bool) {
	if ch, bw, ok := pk.bestChannel(from, to); ok {
		return path{ch: [2]topology.ChannelID{ch}, hops: 1}, bw, true
	}
	if !pk.allowDetour {
		return path{}, 0, false
	}
	var best path
	bestBW := 0.0
	for m := range pk.nodes {
		if m == from || m == to {
			continue
		}
		h1, bw1, ok := pk.bestChannel(from, m)
		if !ok {
			continue
		}
		h2, bw2, ok := pk.bestChannel(m, to)
		if !ok {
			continue
		}
		if bw := min2(bw1, bw2) / 2; best.hops == 0 || bw > bestBW {
			best = path{ch: [2]topology.ChannelID{h1, h2}, hops: 2}
			bestBW = bw
		}
	}
	return best, bestBW, best.hops > 0
}

// bestChannel picks the highest-effective-bandwidth channel from
// participant a to participant b that is neither claimed nor dead (ties to
// the lowest id, for determinism).
func (pk *packer) bestChannel(a, b int) (topology.ChannelID, float64, bool) {
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

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
