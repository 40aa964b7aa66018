package collective

import (
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// Tree is a logical reduction/broadcast tree over participant indices
// 0..P-1 (positions in Schedule.Nodes, not raw NodeIDs, so the same logical
// tree can be embedded into any physical topology).
type Tree struct {
	Root     int
	Parent   []int   // Parent[i] = parent participant of i; -1 for the root
	Children [][]int // derived from Parent
}

// NewTree builds a Tree from a parent array (exactly one -1 entry).
func NewTree(parent []int) (Tree, error) {
	t := Tree{Parent: append([]int(nil), parent...), Root: -1}
	t.Children = make([][]int, len(parent))
	for i, p := range parent {
		if p == -1 {
			if t.Root != -1 {
				return Tree{}, fmt.Errorf("collective: tree has two roots (%d, %d)", t.Root, i)
			}
			t.Root = i
			continue
		}
		if p < 0 || p >= len(parent) || p == i {
			return Tree{}, fmt.Errorf("collective: node %d has invalid parent %d", i, p)
		}
		t.Children[p] = append(t.Children[p], i)
	}
	if t.Root == -1 {
		return Tree{}, fmt.Errorf("collective: tree has no root")
	}
	// Reject cycles / disconnected components: walk up from every node.
	for i := range parent {
		seen := 0
		for v := i; v != t.Root; v = t.Parent[v] {
			seen++
			if seen > len(parent) {
				return Tree{}, fmt.Errorf("collective: node %d does not reach the root", i)
			}
		}
	}
	return t, nil
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t Tree) Depth() int {
	var depth func(v int) int
	depth = func(v int) int {
		max := 0
		for _, w := range t.Children[v] {
			if d := depth(w) + 1; d > max {
				max = d
			}
		}
		return max
	}
	return depth(t.Root)
}

// PostOrder returns participants children-before-parents.
func (t Tree) PostOrder() []int {
	out := make([]int, 0, len(t.Parent))
	var walk func(v int)
	walk = func(v int) {
		for _, w := range t.Children[v] {
			walk(w)
		}
		out = append(out, v)
	}
	walk(t.Root)
	return out
}

// PreOrder returns participants parents-before-children.
func (t Tree) PreOrder() []int {
	out := make([]int, 0, len(t.Parent))
	var walk func(v int)
	walk = func(v int) {
		out = append(out, v)
		for _, w := range t.Children[v] {
			walk(w)
		}
	}
	walk(t.Root)
	return out
}

// MaxChildren returns the maximum fan-out (2 for a binary tree).
func (t Tree) MaxChildren() int {
	max := 0
	for _, c := range t.Children {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// Shift returns the tree with every participant relabeled (i+1) mod p — the
// "shift" construction of the two-tree algorithm [Sanders et al. 2009]: when
// P is a power of two, every internal node of the first tree is a leaf of
// the shifted tree and vice versa, so the two trees together keep all nodes'
// links busy.
func (t Tree) Shift(p int) Tree {
	parent := make([]int, p)
	for i := 0; i < p; i++ {
		// Position of participant i in the original tree is (i-1+p) % p.
		orig := (i - 1 + p) % p
		if t.Parent[orig] == -1 {
			parent[i] = -1
		} else {
			parent[i] = (t.Parent[orig] + 1) % p
		}
	}
	out, err := NewTree(parent)
	if err != nil {
		panic(fmt.Sprintf("collective: shift of valid tree failed: %v", err))
	}
	return out
}

// InorderTree returns the canonical binary tree used as the first tree of
// the double-tree algorithm: participants 0..p-2 arranged as a balanced
// in-order binary search tree, with participant p-1 as the top root holding
// a single child (NCCL's construction). Depth is ceil(log2 p) + 1.
func InorderTree(p int) Tree {
	if p < 2 {
		panic(fmt.Sprintf("collective: tree over %d participants", p))
	}
	parent := make([]int, p)
	for i := range parent {
		parent[i] = -1
	}
	var build func(lo, hi, par int)
	build = func(lo, hi, par int) {
		if lo >= hi {
			return
		}
		mid := lo + (hi-lo)/2
		parent[mid] = par
		build(lo, mid, mid)
		build(mid+1, hi, mid)
	}
	build(0, p-1, p-1)
	t, err := NewTree(parent)
	if err != nil {
		panic(fmt.Sprintf("collective: inorder tree construction failed: %v", err))
	}
	return t
}

// DoubleTrees returns the two trees of the generic double-tree algorithm:
// the in-order tree and its shift.
func DoubleTrees(p int) (Tree, Tree) {
	t1 := InorderTree(p)
	return t1, t1.Shift(p)
}

// DGX1Trees returns the two binary trees of the paper's DGX-1 mapping
// (Fig. 10). The trees are designed so that:
//
//   - each tree needs exactly one detour route (tree 1: GPU2->GPU4 through
//     GPU0; tree 2: GPU3->GPU5 through GPU1 — the paper's detour nodes);
//   - the only node pairs appearing as edges in *both* trees ({0,1}, {2,3},
//     {6,7}) are exactly pairs carrying two parallel NVLinks on the real
//     machine, so the overlapped double tree gets dedicated channels in
//     every direction (paper §IV-A).
func DGX1Trees() (Tree, Tree) {
	// Tree 1: root 4; 4->{2,6}; 2->{3,1}; 6->{7,5}; 1->{0}.
	parent1 := []int{1, 2, 4, 2, -1, 6, 4, 6}
	// Tree 2 is tree 1 under the mirror i XOR 1:
	// root 5; 5->{3,7}; 3->{2,0}; 7->{6,4}; 0->{1}.
	parent2 := []int{3, 0, 3, 5, 7, -1, 7, 5}
	t1, err := NewTree(parent1)
	if err != nil {
		panic(err)
	}
	t2, err := NewTree(parent2)
	if err != nil {
		panic(err)
	}
	return t1, t2
}

// treeChunks assigns global chunk indices round-robin over numTrees trees,
// so tree t carries chunks {c : c % numTrees == t}.
func treeChunks(k, numTrees, t int) []int {
	out := make([]int, 0, (k-t+numTrees-1)/numTrees)
	for c := t; c < k; c += numTrees {
		out = append(out, c)
	}
	return out
}

// RoutedTree is a logical tree whose edges have claimed physical routes,
// indexed by child participant (the root's are empty), plus the walk orders
// a chunk is laid out in: Order lists the participants parents first, for
// the broadcast, and ReduceOrder children first, for the reduction. The
// built-in algorithms use PreOrder and PostOrder.
type RoutedTree struct {
	Tree
	Up, Down           []topology.Route // child => parent, parent => child
	Order, ReduceOrder []int
}

// check reports why rt cannot be laid out over nodes.
func (rt *RoutedTree) check(nodes []topology.NodeID) error {
	n := len(nodes)
	if len(rt.Parent) != n || len(rt.Children) != n || len(rt.Up) != n || len(rt.Down) != n {
		return fmt.Errorf("spans %d participants, want %d", len(rt.Parent), n)
	}
	seen := make([]bool, n)
	if !walkOrder(rt.Order, rt.Parent, false, seen) || !walkOrder(rt.ReduceOrder, rt.Parent, true, seen) {
		return fmt.Errorf("walk orders must list every participant once, parents first in Order and last in ReduceOrder")
	}
	clear(seen) // now: listed as a child
	kids := 0
	for v, p := range rt.Parent {
		edge := v != rt.Root
		bad := (p >= 0) != edge || (rt.Up[v].Hops() > 0) != edge || (rt.Down[v].Hops() > 0) != edge
		for _, w := range rt.Children[v] {
			bad = bad || w < 0 || w >= n || rt.Parent[w] != v || seen[w]
			if !bad {
				seen[w] = true
			}
		}
		if bad {
			return fmt.Errorf("participant %d (parent %d, root %d): every tree edge needs a route each way, the root none, and parent and child links must agree", v, p, rt.Root)
		}
		kids += len(rt.Children[v])
	}
	if kids != n-1 {
		return fmt.Errorf("children lists hold %d participants, want %d", kids, n-1)
	}
	return nil
}

// walkOrder reports whether order lists every participant once, each after
// its parent, or before it when childFirst. seen is scratch, one entry per
// participant.
func walkOrder(order, parent []int, childFirst bool, seen []bool) bool {
	if len(order) != len(parent) {
		return false
	}
	clear(seen)
	for _, v := range order {
		if v < 0 || v >= len(parent) || seen[v] {
			return false
		}
		if p := parent[v]; p >= len(parent) || p >= 0 && seen[p] == childFirst {
			return false
		}
		seen[v] = true
	}
	return true
}

// assignRoutes claims physical routes for every edge of a tree, in both
// directions, through the shared router. Directly connected edges are routed
// first so that a detour never steals a channel a direct edge needs. If
// sharing is permitted (see buildTreeSchedule), claim failures fall back to
// reusing claimed channels.
func assignRoutes(g *topology.Graph, nodes []topology.NodeID, t Tree, r *topology.Router, allowShared bool) (RoutedTree, error) {
	rt := RoutedTree{Tree: t, Up: make([]topology.Route, len(nodes)), Down: make([]topology.Route, len(nodes)),
		Order: t.PreOrder(), ReduceOrder: t.PostOrder()}
	var direct, detour []int
	for _, v := range rt.ReduceOrder {
		if v == t.Root {
			continue
		}
		if g.HasDirect(nodes[v], nodes[t.Parent[v]]) {
			direct = append(direct, v)
		} else {
			detour = append(detour, v)
		}
	}
	for _, v := range append(direct, detour...) {
		p := t.Parent[v]
		up, err := routeOrShared(g, r, nodes[v], nodes[p], allowShared)
		if err != nil {
			return rt, fmt.Errorf("collective: no uplink route %v->%v: %w", nodes[v], nodes[p], err)
		}
		down, err := routeOrShared(g, r, nodes[p], nodes[v], allowShared)
		if err != nil {
			return rt, fmt.Errorf("collective: no downlink route %v->%v: %w", nodes[p], nodes[v], err)
		}
		rt.Up[v] = up
		rt.Down[v] = down
	}
	return rt, nil
}

// routeOrShared claims an exclusive route, or, when allowed, reuses already
// claimed channels (modeling two logical flows sharing one physical channel;
// the DES then serializes them, which is exactly the paper's argument for
// why a plain double tree cannot be overlapped).
func routeOrShared(g *topology.Graph, r *topology.Router, from, to topology.NodeID, allowShared bool) (topology.Route, error) {
	rt, err := r.Route(from, to)
	if err == nil {
		return rt, nil
	}
	if !allowShared {
		return topology.Route{}, err
	}
	if chs := g.ChannelsBetween(from, to); len(chs) > 0 {
		return topology.Route{Channels: chs[:1]}, nil
	}
	// Shared detour through any common GPU neighbor.
	for _, mid := range g.Neighbors(from) {
		if g.Node(mid).Kind != topology.GPU {
			continue
		}
		first := g.ChannelsBetween(from, mid)
		second := g.ChannelsBetween(mid, to)
		if len(first) > 0 && len(second) > 0 {
			return topology.Route{Channels: []topology.ChannelID{first[0], second[0]}}, nil
		}
	}
	return topology.Route{}, err
}

// buildTreeSchedule constructs the full transfer DAG for an AllReduce over
// one or more trees.
//
// Per tree, every chunk flows up the tree (pipelined reduction: a node sends
// chunk c to its parent once all children contributions for c have arrived)
// and then down the tree (pipelined broadcast). When overlap is false the
// broadcast of the whole tree waits for its reduction to finish (baseline,
// Fig. 5(a)); when true, each chunk's broadcast starts the moment that chunk
// is fully reduced at the root (the paper's overlapped tree, Fig. 5(c),
// Observations #1 and #2).
//
// The overlapped trees are laid out chunk-major (chunkMajor), so a k-chunk
// schedule is the first k chunks of any longer one, unless two of their
// hops share a channel (sharedHops); those and the separated trees are laid
// out tree-major (buildSingleTree). The DES grants a channel's
// simultaneously ready transfers in id order. On an unshared channel the
// FIFO chain already orders every transfer, so the layouts run
// identically; on a shared one tree-major ids give tree 0 the ties, and
// chunk-major ids would change the schedule's timing.
//
// FIFO dependencies between consecutive chunks on every hop model the
// persistent-kernel execution: a channel kernel processes chunks strictly in
// order, which is what gives the tree algorithm its in-order property
// (Observation #3).
func buildTreeSchedule(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, trees []Tree, overlap, allowShared bool) (*Schedule, error) {
	// Route every tree before emitting anything, so the schedule reserves
	// its exact size.
	router := topology.NewRouter(g)
	routed := make([]RoutedTree, len(trees))
	for ti, tree := range trees {
		if len(tree.Parent) != len(nodes) {
			return nil, fmt.Errorf("collective: tree %d spans %d participants, want %d", ti, len(tree.Parent), len(nodes))
		}
		var err error
		if routed[ti], err = assignRoutes(g, nodes, tree, router, allowShared); err != nil {
			return nil, err
		}
	}
	if overlap && !sharedHops(g, routed) {
		return chunkMajor(g, nodes, part, routed)
	}
	f, err := newForest(g, nodes, part, routed, overlap)
	if err != nil {
		return nil, err
	}
	for ti := range trees {
		buildSingleTree(f.s, &f.up[ti], &f.down[ti], treeChunks(part.NumChunks(), len(trees), ti), overlap)
	}
	return f.s, nil
}

// sharedHops reports whether two hops of the routed trees ride one
// channel, which only routeOrShared's fallback produces.
func sharedHops(g *topology.Graph, trees []RoutedTree) bool {
	used := make([]bool, g.NumChannels())
	for _, rt := range trees {
		for _, routes := range [2][]topology.Route{rt.Up, rt.Down} {
			for _, r := range routes {
				for _, ch := range r.Channels {
					if used[ch] {
						return true
					}
					used[ch] = true
				}
			}
		}
	}
	return false
}

// forest is an AllReduce schedule under construction over routed trees,
// chunk c riding tree c mod len(trees): per tree, its reduction and
// broadcast phases. The separated trees, and overlapped ones sharing a
// channel, are laid out tree-major (buildSingleTree); the other overlapped
// built-ins and AssembleForest's forests chunk-major (chunkMajor), so
// chunks [0, k) of a K-chunk forest are its first ops. One certificate
// (schedcheck.PhasePrefixes) takes both: chunk-major is one phase, and the
// cache serves a k-chunk request as a header over that prefix; the
// separated trees are two, served by a copy with each barrier re-pointed
// (incremental.go). Tree-major overlapped trees take neither.
type forest struct {
	s        *Schedule
	up, down []treePhase
}

// newForest starts the schedule of part's chunks over trees and reserves
// exactly the ops and deps they take: per tree, its chunks' reductions,
// root-ready markers and broadcasts, plus a barrier unless overlap.
func newForest(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, trees []RoutedTree, overlap bool) (forest, error) {
	k, t := part.NumChunks(), len(trees)
	if t == 0 {
		return forest{}, fmt.Errorf("collective: no trees")
	}
	if k < t {
		return forest{}, fmt.Errorf("collective: %d chunks cannot feed %d trees", k, t)
	}
	s := newSchedule(g, nodes, part)
	s.InOrder = true
	s.Streams = t // chunks round-robin over trees; order holds per tree
	s.Contract = ContractAllReduce
	phases := make([]treePhase, 2*t)
	f := forest{s: s, up: phases[:t], down: phases[t:]}
	ops, deps := 0, 0
	add := func(o, d int) { ops, deps = ops+o, deps+d }
	for ti, rt := range trees {
		f.up[ti] = newTreePhase(s, nodes, rt, true)
		f.down[ti] = newTreePhase(s, nodes, rt, false)
		n := (k - ti + t - 1) / t // chunks riding tree ti
		add(f.up[ti].cost(n, false))
		add(n, n*len(rt.Children[rt.Root])) // root-ready markers
		if !overlap {
			add(1, 1) // the barrier
		}
		add(f.down[ti].cost(n, true))
	}
	s.reserve(ops, deps)
	return f, nil
}

// chunkMajor lays part's chunks over the routed trees chunk by chunk:
// chunk c's reduction over tree c mod t, its root-ready marker, then its
// broadcast, started the moment c is reduced, every hop chained behind the
// same hop of chunk c-t. The result is one phase of one segment, each
// chunk's block closed over itself and earlier chunks.
func chunkMajor(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, trees []RoutedTree) (*Schedule, error) {
	for ti := range trees {
		if err := trees[ti].check(nodes); err != nil {
			return nil, fmt.Errorf("collective: routed tree %d: %w", ti, err)
		}
	}
	f, err := newForest(g, nodes, part, trees, true)
	if err != nil {
		return nil, err
	}
	t := len(trees)
	for c := 0; c < part.NumChunks(); c++ {
		up := &f.up[c%t]
		ready := f.s.addMarker(c, up.parts[up.tree.Root], up.reduce(c, c >= t, nil)...)
		f.down[c%t].broadcast(c, c >= t, ready)
	}
	return f.s, nil
}

// buildSingleTree adds one tree's transfers to the schedule.
func buildSingleTree(s *Schedule, up, down *treePhase, chunks []int, overlap bool) {
	root := up.tree.Root
	rootReady := make([]int, len(chunks))
	for ci, c := range chunks {
		// Chunk c is fully reduced at the root once all root children
		// delivered it.
		rootReady[ci] = s.addMarker(c, up.parts[root], up.reduce(c, ci > 0, nil)...)
	}

	// Barrier for the non-overlapped tree: broadcast waits for the whole
	// reduction phase. FIFO dependencies make the last chunk's root arrival
	// imply all earlier ones.
	barrier := -1
	if !overlap {
		barrier = s.addMarker(chunks[len(chunks)-1], -1, rootReady[len(chunks)-1])
	}
	for ci, c := range chunks {
		dep := barrier
		if overlap {
			dep = rootReady[ci]
		}
		down.broadcast(c, ci > 0, dep)
	}
}

// treePhase emits one tree's pipelined per-chunk sends over its routed
// edges: a reduction up the tree or a broadcast down it. Each
// participant's latest hop ids sit in one flat table, so a hop can depend
// on the same hop of the previous chunk without per-chunk storage.
type treePhase struct {
	s        *Schedule
	parts    []topology.NodeID // participant index -> node
	tree     Tree
	order    []int            // the routed tree's ReduceOrder or Order
	routes   []topology.Route // per child participant: its edge's route this way
	hopOff   []int            // participant v's latest hop ids are hops[hopOff[v]:hopOff[v+1]]
	hops     []int
	deps     []int // scratch for hop-0 dependencies
	reducing bool  // up the tree, accumulating; else down, copying
}

func newTreePhase(s *Schedule, parts []topology.NodeID, rt RoutedTree, reduce bool) treePhase {
	tp := treePhase{s: s, parts: parts, tree: rt.Tree, order: rt.Order, routes: rt.Down, reducing: reduce}
	if reduce {
		tp.order, tp.routes = rt.ReduceOrder, rt.Up
	}
	// One buffer holds the hop offsets, the hop table and the deps scratch:
	// at most a participant's children plus one more dependency.
	n, hops := len(parts)+1, 0
	for _, r := range tp.routes {
		hops += r.Hops()
	}
	buf := make([]int, n+hops+rt.MaxChildren()+1)
	tp.hopOff, tp.hops, tp.deps = buf[:n:n], buf[n:n+hops:n+hops], buf[n+hops:n+hops]
	for v, r := range tp.routes {
		tp.hopOff[v+1] = tp.hopOff[v] + r.Hops()
	}
	return tp
}

// last returns the op delivering participant v's latest send.
func (tp *treePhase) last(v int) int { return tp.hops[tp.hopOff[v+1]-1] }

// reduce appends chunk c's reduction: in post-order every non-root
// participant sends c to its parent once its children's sends of c have
// landed, and once extra(v) has when extra is non-nil. fifo chains every
// hop behind the same hop of the previous chunk. It returns the
// dependencies of the root's completion of c — its children's deliveries,
// plus extra(root) — valid until the next call.
func (tp *treePhase) reduce(c int, fifo bool, extra func(v int) int) []int {
	for _, v := range tp.order {
		if v != tp.tree.Root {
			tp.send(v, c, tp.parts[v], tp.parts[tp.tree.Parent[v]], fifo, tp.gather(v, extra))
		}
	}
	return tp.gather(tp.tree.Root, extra)
}

// gather collects, in the scratch slice, the deliveries of v's children's
// latest sends, plus extra(v) when extra is non-nil.
func (tp *treePhase) gather(v int, extra func(v int) int) []int {
	tp.deps = tp.deps[:0]
	for _, w := range tp.tree.Children[v] {
		tp.deps = append(tp.deps, tp.last(w))
	}
	if extra != nil {
		tp.deps = append(tp.deps, extra(v))
	}
	return tp.deps
}

// broadcast appends chunk c's broadcast: in pre-order every participant
// forwards c to its children once it holds it; the root's sends wait for
// rootDep when it is >= 0. fifo chains every hop behind the same hop of the
// previous chunk.
func (tp *treePhase) broadcast(c int, fifo bool, rootDep int) {
	for _, v := range tp.order {
		for _, w := range tp.tree.Children[v] {
			tp.deps = tp.deps[:0]
			if v != tp.tree.Root {
				tp.deps = append(tp.deps, tp.last(v))
			} else if rootDep >= 0 {
				tp.deps = append(tp.deps, rootDep)
			}
			tp.send(w, c, tp.parts[v], tp.parts[w], fifo, tp.deps)
		}
	}
}

// send appends chunk c's send over child participant v's edge, from node
// src's buffer to dst's, one op per hop. Hop 0 depends on deps and every
// later hop on the hop before it; with fifo, hop h also depends on v's hop h
// of the previous chunk. Intermediate hops park the chunk in their own relay
// slot for the next GPU to forward (paper §IV-A). The last hop writes dst:
// accumulating when reducing, otherwise copying and marking the chunk final
// at dst.
func (tp *treePhase) send(v, c int, src, dst topology.NodeID, fifo bool, deps []int) {
	s := tp.s
	hops := tp.hops[tp.hopOff[v]:tp.hopOff[v+1]]
	last := len(hops) - 1
	for h, ch := range tp.routes[v].Channels {
		id := len(s.ops)
		op := schedcheck.Op{Chunk: int32(c), Channel: int32(ch),
			Src: schedcheck.NodeBuf(src), Dst: schedcheck.RelayBuf(id), Final: -1}
		if h > 0 {
			op.Src = schedcheck.RelayBuf(id - 1)
		}
		if h == last {
			op.Dst, op.Accumulate = schedcheck.NodeBuf(dst), tp.reducing
			if !tp.reducing {
				op.Final = int32(dst)
			}
		}
		if h == 0 {
			s.add(op, deps...)
		} else {
			s.add(op, id-1)
		}
		if fifo {
			s.addDep(hops[h])
		}
		hops[h] = id
	}
}

// cost returns the ops and deps that chunks calls of reduce or broadcast
// append, the first without FIFO edges. A call's hop-0 sends depend once
// per tree edge whose parent is not the root and, with dep, once more per
// sender (reduce's extra) or per root child (broadcast's rootDep).
func (tp *treePhase) cost(chunks int, dep bool) (ops, deps int) {
	edges, rootKids := len(tp.parts)-1, len(tp.tree.Children[tp.tree.Root])
	head := edges - rootKids
	switch {
	case dep && tp.reducing:
		head += edges
	case dep:
		head += rootKids
	}
	hops := len(tp.hops)
	return chunks * hops, chunks*(head+hops-edges) + (chunks-1)*hops
}
