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
// schedule. PackForest returns it materialized once and never changes it,
// so one Forest may be shared by every compile over the same fabric.
type Forest struct {
	Trees   []*Tree
	Detours int
}

// errNoTree reports a participant set no healthy channels span.
var errNoTree = fmt.Errorf("synth: participants are not connected by healthy channels; no spanning tree exists")

// PackForest packs up to `want` channel-disjoint spanning trees over the
// participants, ForestColl-style, as a search over one greedy pass. A pass
// (packRotation) grows each tree greedily by the maximum-bottleneck
// attachment (effective bandwidth, so degraded links are naturally
// avoided), never uses a dead channel, may splice a stranded participant in
// over a two-hop detour through another GPU (unless allowDetour is false),
// and stops at the first tree that cannot span. Its trees are rooted in
// turn along the participants by descending egress bandwidth, starting at
// a rotation of that order; the search runs one pass per rotation, the
// seed's first, and stops at the first forest with as many trees as the
// fabric's channels can hold: min(want, ⌊healthy participant-to-participant
// channels ÷ 2(P−1)⌋), since a tree's P−1 edges each claim at least one
// channel up and one down. It keeps the pass with the most trees, then the
// largest summed bottleneck, ties to the earlier rotation. At least one
// tree must span or PackForest errors.
//
// The passes share one packer, so the pair index is built once, every
// claim is rolled back between passes, and trees grow in scratch: only the
// kept forest is materialized. A pass costs O(T·P³) for T trees over P
// participants (see packer), the search at most P passes.
func PackForest(g *topology.Graph, nodes []topology.NodeID, want int, seed int64, allowDetour bool) (*Forest, error) {
	n := len(nodes)
	if n < 2 {
		return nil, fmt.Errorf("synth: %d participants", n)
	}
	want = max(want, 1)
	pk := newPacker(g, nodes, allowDetour)
	bound := min(want, len(pk.links)/(2*(n-1)))
	roots, first := rootOrder(g, nodes), rotation(seed, n)
	pk.reserve(2 * bound)
	cur, best := pk.drafts[:bound], pk.drafts[bound:]
	kept, keptSum := 0, 0.0
	for r := 0; r < n && kept < bound; r++ {
		got := pk.pass(roots, (first+r)%n, cur)
		sum := 0.0
		for _, d := range cur[:got] {
			sum += d.bottleneck
		}
		if got > kept || (got == kept && sum > keptSum) {
			cur, best, kept, keptSum = best, cur, got, sum
		}
		pk.release(0)
	}
	if kept == 0 {
		return nil, errNoTree
	}
	return pk.materialize(best[:kept]), nil
}

// packRotation is one greedy pass of PackForest's search, the seed's
// rotation, materialized: up to want trees, rooted along the participants
// by descending egress bandwidth from the seed's rotation on, stopping at
// the first that cannot span.
func packRotation(g *topology.Graph, nodes []topology.NodeID, want int, seed int64, allowDetour bool) (*Forest, error) {
	n := len(nodes)
	if n < 2 {
		return nil, fmt.Errorf("synth: %d participants", n)
	}
	want = max(want, 1)
	pk := newPacker(g, nodes, allowDetour)
	pk.reserve(want)
	got := pk.pass(rootOrder(g, nodes), rotation(seed, n), pk.drafts)
	if got == 0 {
		return nil, errNoTree
	}
	return pk.materialize(pk.drafts[:got]), nil
}

// rotation is the offset of the seed's rotation of the root order over n
// participants.
func rotation(seed int64, n int) int {
	return int(seed%int64(n)+int64(n)) % n
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
// or rollback drops only the memos it can change. Its other fields are the
// scratch every pass reuses.
type packer struct {
	n           int
	allowDetour bool
	pairs       []pair // by a*n+b for participants a, b
	links       []link // every pair's channels, pair after pair

	// claims lists the links the current pass claimed, in claim order, so
	// a failed tree or a finished pass rolls back through setClaimed.
	claims []int32
	// inTree, depth and kids describe the tree growing now: membership,
	// depth and child count per participant.
	inTree      []bool
	depth, kids []int
	// drafts hold the trees of passes before one is materialized.
	drafts []draft
}

// draft is one tree of a pass, grown in the packer's scratch.
type draft struct {
	root       int
	parent     []int  // by participant, -1 at the root
	order      []int  // attachment order, root first
	up, down   []path // by participant: the routes to and from its parent
	bottleneck float64
	detours    int
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
	pk.claims = make([]int32, 0, len(pk.links))
	pk.inTree = make([]bool, n)
	ints := make([]int, 2*n)
	pk.depth, pk.kids = ints[:n:n], ints[n:]
	return pk
}

// reserve sizes the scratch for m drafts, in one allocation per column.
func (pk *packer) reserve(m int) {
	n := pk.n
	ints := make([]int, 2*m*n)
	paths := make([]path, 2*m*n)
	pk.drafts = make([]draft, m)
	for i := range pk.drafts {
		d := &pk.drafts[i]
		d.parent, ints = ints[:n:n], ints[n:]
		d.order, ints = ints[:0:n], ints[n:]
		d.up, paths = paths[:n:n], paths[n:]
		d.down, paths = paths[:n:n], paths[n:]
	}
}

// path is a route of one or two channels, as indexes into the packer's
// links, held by value so that comparing candidate attachments allocates
// nothing.
type path struct {
	l    [2]int32
	hops int
}

// pass grows trees into ds, tree ti rooted at roots[(off+ti) mod n], until
// ds is full or a tree cannot span, and returns how many spanned. Their
// claims stay set until release.
func (pk *packer) pass(roots []int, off int, ds []draft) int {
	for ti := range ds {
		if !pk.grow(roots[(off+ti)%pk.n], &ds[ti]) {
			return ti
		}
	}
	return len(ds)
}

// release frees every link claimed after the first mark claims.
func (pk *packer) release(mark int) {
	for _, l := range pk.claims[mark:] {
		pk.setClaimed(l, false)
	}
	pk.claims = pk.claims[:mark]
}

// claim takes p's links for the growing tree.
func (pk *packer) claim(p path) {
	for _, l := range p.l[:p.hops] {
		pk.setClaimed(l, true)
		pk.claims = append(pk.claims, l)
	}
}

// grow grows one spanning tree from root into d with Prim-style greedy
// maximum-bottleneck attachments over unclaimed healthy channels. On
// success every channel the tree uses stays claimed; on failure the tree's
// claims are rolled back and grow reports false.
func (pk *packer) grow(root int, d *draft) bool {
	mark := len(pk.claims)
	clear(pk.inTree)
	clear(pk.depth)
	clear(pk.kids)
	for i := range d.parent {
		d.parent[i] = -1
	}
	d.root, d.order, d.bottleneck, d.detours = root, append(d.order[:0], root), 0, 0
	pk.inTree[root] = true
	for len(d.order) < pk.n {
		best, ok := pk.bestAttachment()
		if !ok {
			pk.release(mark)
			return false
		}
		pk.claim(best.up)
		pk.claim(best.down)
		v, u := best.v, best.u
		d.parent[v] = u
		d.up[v], d.down[v] = best.up, best.down
		pk.kids[u]++
		pk.depth[v] = pk.depth[u] + 1
		pk.inTree[v] = true
		d.order = append(d.order, v)
		if best.up.hops > 1 {
			d.detours++
		}
		if best.down.hops > 1 {
			d.detours++
		}
		if d.bottleneck == 0 || best.score < d.bottleneck {
			d.bottleneck = best.score
		}
	}
	return true
}

// materialize builds the forest of ds: each tree's children in attachment
// order, its reduce order the reverse, and its routes' channels, every
// column of the forest in one allocation.
func (pk *packer) materialize(ds []draft) *Forest {
	n, m := pk.n, len(ds)
	hops := 0
	for _, d := range ds {
		for _, v := range d.order[1:] {
			hops += d.up[v].hops + d.down[v].hops
		}
	}
	f := &Forest{Trees: make([]*Tree, m)}
	trees := make([]Tree, m)
	ints := make([]int, m*(4*n-1))
	kids := make([][]int, m*n)
	routes := make([]topology.Route, 2*m*n)
	chans := make([]topology.ChannelID, hops)
	take := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	route := func(p path) topology.Route {
		r := topology.Route{Channels: chans[:p.hops:p.hops]}
		for i := range r.Channels {
			r.Channels[i] = pk.links[p.l[i]].ch
		}
		chans = chans[p.hops:]
		return r
	}
	for ti, d := range ds {
		t := &trees[ti]
		t.Root, t.Bottleneck, t.Detours = d.root, d.bottleneck, d.detours
		t.Parent, t.Order, t.ReduceOrder = take(n), take(n), take(n)
		copy(t.Parent, d.parent)
		copy(t.Order, d.order)
		copy(t.ReduceOrder, d.order)
		slices.Reverse(t.ReduceOrder)
		t.Children, kids = kids[:n:n], kids[n:]
		t.Up, routes = routes[:n:n], routes[n:]
		t.Down, routes = routes[:n:n], routes[n:]
		// Each child list is a window of one array, in attachment order:
		// count the children, then place them.
		clear(pk.kids)
		for _, v := range d.order[1:] {
			pk.kids[d.parent[v]]++
		}
		all := take(n - 1)
		for u, c := range pk.kids {
			if c > 0 {
				t.Children[u], all = all[:0:c], all[c:]
			}
		}
		for _, v := range d.order[1:] {
			u := d.parent[v]
			t.Children[u] = append(t.Children[u], v)
			t.Up[v], t.Down[v] = route(d.up[v]), route(d.down[v])
		}
		f.Trees[ti] = t
		f.Detours += t.Detours
	}
	return f
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

// bestAttachment scans every (outside v, inside u) pair of the growing tree
// for the best attachment. The up (v->u) and down (u->v) routes are found
// independently — each direct when an unclaimed channel exists, else
// relay-spliced through a third GPU when detours are allowed — so an edge
// whose fabric is exhausted in one direction can still attach by detouring
// just that direction. Preference order: maximum bottleneck bandwidth
// (detoured routes score half — the relay carries the payload twice), then
// fewest physical hops, then balanced shallow trees (smallest
// children-count+depth of u), then smallest ids.
func (pk *packer) bestAttachment() (attachment, bool) {
	var best attachment
	found := false
	balance := func(u int) int { return pk.kids[u] + pk.depth[u] }
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
		if pk.inTree[v] {
			continue
		}
		for u := range pk.n {
			if !pk.inTree[u] {
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
