package synth

import (
	"fmt"
	"slices"
	"sort"

	"ccube/internal/collective"
	"ccube/internal/topology"
)

// Tree is one packed spanning tree over the participant set, with the
// physical routes its edges claimed. Its Order is the attachment order
// (root first, so parents before children) and its ReduceOrder the reverse.
type Tree struct {
	collective.RoutedTree
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
// rotates the root sequence, making distinct seeds distinct packings. It
// costs O(T·P³) for T trees over P participants (see packer).
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

// packer is the state of one PackForest call. Its pair index holds every
// ordered participant pair's healthy channels, built once per call, with
// the pair's best free direct channel and best two-hop splice memoized: an
// attachment step reads each candidate pair's routes in O(1), and a claim
// or rollback drops only the memos it can change.
type packer struct {
	n           int
	allowDetour bool
	pairs       []pair // by a*n+b for participants a, b
	links       []link // every pair's channels, pair after pair
}

// pair is one ordered participant pair (a, b) of the pair index.
type pair struct {
	lo, hi int32 // its channels from nodes[a] to nodes[b]: links[lo:hi], in g.Out order
	// direct is the best free channel (an index into links, -1 when none)
	// and splice the best two-hop route through a third GPU (two link
	// indexes, splice[0] = -1 when none); each holds while its fresh flag
	// is set.
	direct                   int32
	splice                   [2]int32
	directFresh, spliceFresh bool
}

// link is one healthy channel between two participants.
type link struct {
	ch      topology.ChannelID
	bw      float64 // effective bandwidth
	pair    int32   // its pair's index
	claimed bool    // taken by a tree so far
}

// newPacker indexes the healthy channels between participants, pair by
// pair. Health cannot change during a call, so dead channels are left out
// of the index rather than skipped on every scan.
func newPacker(g *topology.Graph, nodes []topology.NodeID, allowDetour bool) *packer {
	n := len(nodes)
	out := 0
	for _, id := range nodes {
		out += len(g.Out(id))
	}
	pk := &packer{n: n, allowDetour: allowDetour, pairs: make([]pair, n*n), links: make([]link, 0, out)}
	for a, from := range nodes {
		for b, to := range nodes {
			p := &pk.pairs[a*n+b]
			p.lo = int32(len(pk.links))
			for _, ch := range g.Out(from) {
				if c := g.Channel(ch); c.To == to && !c.Down() {
					pk.links = append(pk.links, link{ch: ch, bw: c.EffectiveBandwidth(), pair: int32(a*n + b)})
				}
			}
			p.hi = int32(len(pk.links))
		}
	}
	return pk
}

// path is a route of one or two channels, as indexes into the packer's
// links, held by value so that comparing candidate attachments allocates
// nothing.
type path struct {
	l    [2]int32
	hops int
}

// route returns p's channels.
func (pk *packer) route(p path) topology.Route {
	r := topology.Route{Channels: make([]topology.ChannelID, p.hops)}
	for i := range r.Channels {
		r.Channels[i] = pk.links[p.l[i]].ch
	}
	return r
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
	n := pk.n
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

	var mine []int32 // this tree's claimed links, for rollback
	claim := func(p path) {
		for _, l := range p.l[:p.hops] {
			pk.setClaimed(l, true)
			mine = append(mine, l)
		}
	}

	for len(t.Order) < n {
		best, ok := pk.bestAttachment(inTree, depth, t)
		if !ok {
			for _, l := range mine {
				pk.setClaimed(l, false)
			}
			return nil
		}
		claim(best.up)
		claim(best.down)
		v, u := best.v, best.u
		t.Parent[v] = u
		t.Children[u] = append(t.Children[u], v)
		t.Up[v] = pk.route(best.up)
		t.Down[v] = pk.route(best.down)
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

	for v := range pk.n {
		if inTree[v] {
			continue
		}
		for u := range pk.n {
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
	if l := pk.direct(from, to); l >= 0 {
		return path{l: [2]int32{l}, hops: 1}, pk.links[l].bw, true
	}
	if !pk.allowDetour {
		return path{}, 0, false
	}
	s := pk.splice(from, to)
	if s[0] < 0 {
		return path{}, 0, false
	}
	return path{l: s, hops: 2}, min2(pk.links[s[0]].bw, pk.links[s[1]].bw) / 2, true
}

// direct returns the highest-effective-bandwidth unclaimed channel from
// participant a to participant b (ties to the first in g.Out order, the
// lowest id), or -1.
func (pk *packer) direct(a, b int) int32 {
	p := &pk.pairs[a*pk.n+b]
	if !p.directFresh {
		p.direct, p.directFresh = -1, true
		for l := p.lo; l < p.hi; l++ {
			if !pk.links[l].claimed && (p.direct < 0 || pk.links[l].bw > pk.links[p.direct].bw) {
				p.direct = l
			}
		}
	}
	return p.direct
}

// splice returns the best two-hop route from participant from to
// participant to through a third GPU m, by the bottleneck of its two direct
// hops (ties to the lowest m), or {-1, -1}.
func (pk *packer) splice(from, to int) [2]int32 {
	p := &pk.pairs[from*pk.n+to]
	if !p.spliceFresh {
		p.splice, p.spliceFresh = [2]int32{-1, -1}, true
		bestBW := 0.0
		for m := 0; m < pk.n; m++ {
			if m == from || m == to {
				continue
			}
			h1 := pk.direct(from, m)
			if h1 < 0 {
				continue
			}
			h2 := pk.direct(m, to)
			if h2 < 0 {
				continue
			}
			if bw := min2(pk.links[h1].bw, pk.links[h2].bw) / 2; p.splice[0] < 0 || bw > bestBW {
				p.splice, bestBW = [2]int32{h1, h2}, bw
			}
		}
	}
	return p.splice
}

// setClaimed claims or frees link l and drops the memos that can change:
// its pair's direct channel, every splice leaving the pair's source (whose
// first hop may be this pair) and every splice entering its target (whose
// second hop may be).
func (pk *packer) setClaimed(l int32, claimed bool) {
	pk.links[l].claimed = claimed
	pi := int(pk.links[l].pair)
	a, b := pi/pk.n, pi%pk.n
	pk.pairs[pi].directFresh = false
	for x := 0; x < pk.n; x++ {
		pk.pairs[a*pk.n+x].spliceFresh = false
		pk.pairs[x*pk.n+b].spliceFresh = false
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
