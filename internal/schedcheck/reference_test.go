package schedcheck

// reference is the verifier as it stood before query planning, kept as the
// differential oracle for Check: a breadth-first Kahn order, a full
// reachability closure, every conflicting pair of accesses asked
// separately, and contribution counts as int32 vectors. It shares only the
// parts of the walk checker (walkcheck_test.go) that planning did not
// touch: the structure and link passes, the access index in id order,
// labels and violation rendering.
type reference struct {
	*walkChecker
	rows [][]uint64 // rows[id] holds one bit per op id the op reaches
}

// referenceCheck runs the reference verifier over p.
func referenceCheck(p *Program) *Report {
	ck := newWalkChecker(p)
	ck.structure()
	ck.r.Checked = append(ck.r.Checked, ClassStructure)
	if !ck.r.OK() {
		return ck.r
	}
	ref := &reference{walkChecker: ck}
	ref.bfsOrder()
	ref.closure()
	ck.indexReaders()
	ck.links()
	ck.r.Checked = append(ck.r.Checked, ClassLink)
	ref.hazards()
	ck.r.Checked = append(ck.r.Checked, ClassHazard)
	ref.conservation()
	ck.r.Checked = append(ck.r.Checked, ClassConservation)
	if p.InOrder {
		ref.order()
		ck.r.Checked = append(ck.r.Checked, ClassOrder)
	}
	return ck.r
}

// bfsOrder replaces the topological order with Kahn's algorithm over a
// single FIFO queue, ops seeded in id order.
func (ref *reference) bfsOrder() {
	ops := ref.p.Ops
	indeg := make([]int, len(ops))
	var order []int32
	for i := range ops {
		if indeg[i] = len(ref.p.Deps(i)); indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, d := range ref.dependents.row(int(order[head])) {
			if indeg[d]--; indeg[d] == 0 {
				order = append(order, d)
			}
		}
	}
	ref.topo = order
	for k, id := range order {
		ref.pos[id] = int32(k)
	}
}

// closure computes every op's full descendant set, dependents first.
func (ref *reference) closure() {
	n := len(ref.p.Ops)
	words := (n + 63) >> 6
	ref.rows = make([][]uint64, n)
	for k := n - 1; k >= 0; k-- {
		id := ref.topo[k]
		row := make([]uint64, words)
		for _, d := range ref.dependents.row(int(id)) {
			row[d>>6] |= 1 << uint(d&63)
			for j, x := range ref.rows[d] {
				row[j] |= x
			}
		}
		ref.rows[id] = row
	}
}

func (ref *reference) reaches(a, b int) bool { return ref.rows[a][b>>6]&(1<<uint(b&63)) != 0 }

func (ref *reference) pathBetween(a, b int) bool { return ref.reaches(a, b) || ref.reaches(b, a) }

// hazards asks about every conflicting pair of every region.
func (ref *reference) hazards() {
	p := ref.p
	for i := range p.Ops {
		if r := int(p.Ops[i].Src.Relay); r >= 0 && !ref.reaches(r, i) {
			ref.fail(ClassHazard, i, "reads relay slot of %s without depending on it", ref.label(r))
		}
	}
	acc := ref.accessIndex(false)
	for r := 0; r < len(acc.off)-1; r++ {
		list := acc.row(r)
		for a := 0; a < len(list); a++ {
			for b := a + 1; b < len(list); b++ {
				if compatible(list[a].kind, list[b].kind) {
					continue
				}
				if x, y := int(list[a].op), int(list[b].op); !ref.pathBetween(x, y) {
					ref.fail(ClassHazard, x,
						"unordered conflicting access to node %d chunk %d: %s and %s",
						p.Nodes[r/p.NumChunks], r%p.NumChunks, ref.label(x), ref.label(y))
				}
			}
		}
	}
}

// conservation interprets the schedule over int32 contribution counts in
// the breadth-first order.
func (ref *reference) conservation() {
	p := ref.p
	np, nr := len(p.Nodes), len(p.Nodes)*p.NumChunks
	ref.finals = buildCSR(nr, func(emit func(int, int32)) {
		for i := range p.Ops {
			if op := &p.Ops[i]; op.Final >= 0 {
				emit(ref.region(op.FinalNode(), int(op.Chunk)), int32(i))
			}
		}
	})
	writes := make([][]int, nr)
	state := make([][]int32, nr)
	for r := range state {
		state[r] = make([]int32, np)
		state[r][r/p.NumChunks] = 1
	}
	relays := make(map[int][]int32)
	for _, t := range ref.topo {
		id := int(t)
		op := &p.Ops[id]
		if op.Marker() {
			continue
		}
		src := relays[int(op.Src.Relay)]
		if !op.Src.IsRelay() {
			src = state[ref.region(op.Src.NodeID(), int(op.Chunk))]
		}
		if src == nil {
			src = make([]int32, np)
		}
		if op.Dst.IsRelay() {
			relays[id] = append([]int32(nil), src...)
			continue
		}
		r := ref.region(op.Dst.NodeID(), int(op.Chunk))
		writes[r] = append(writes[r], id)
		dst := state[r]
		if !op.Accumulate {
			copy(dst, src)
			continue
		}
		for j := range dst {
			if src[j] > 0 && dst[j] > 0 {
				ref.fail(ClassConservation, id,
					"chunk %d at node %d would sum node %d's contribution twice",
					op.Chunk, op.Dst.Node, p.Nodes[j])
			}
			dst[j] += src[j]
		}
	}
	for r := 0; r < nr; r++ {
		n, c := p.Nodes[r/p.NumChunks], r%p.NumChunks
		finals := ref.finals.row(r)
		if len(finals) == 0 {
			ref.fail(ClassConservation, -1, "chunk %d never becomes ready at node %d", c, n)
			continue
		}
		if !p.AllReduce {
			continue
		}
		ws := writes[r]
		if !exactlyOnce(state[r]) {
			op := -1
			if len(ws) > 0 {
				op = ws[len(ws)-1]
			}
			ref.fail(ClassConservation, op,
				"node %d ends chunk %d with contributions %v, want exactly one each", n, c, state[r])
		}
		for _, w := range ws {
			for _, f := range finals {
				if int(f) != w && !ref.reaches(w, int(f)) {
					ref.fail(ClassConservation, int(f),
						"chunk %d marked ready at node %d without depending on write %s",
						c, n, ref.label(w))
				}
			}
		}
	}
}

// order proves the in-order claim with a memo keyed by op pair.
func (ref *reference) order() {
	p := ref.p
	k := p.NumChunks
	streams := max(p.Streams, 1)
	memo := map[[2]int]bool{}
	var forcedAfter func(a, b int) bool
	forcedAfter = func(a, b int) bool {
		if a == b || ref.reaches(a, b) {
			return true
		}
		op := &p.Ops[a]
		if !op.Marker() {
			return false
		}
		if len(p.Deps(a)) == 0 {
			return true
		}
		key := [2]int{a, b}
		if v, ok := memo[key]; ok {
			return v
		}
		memo[key] = true
		out := true
		for _, d := range p.Deps(a) {
			if !forcedAfter(int(d), b) {
				out = false
				break
			}
		}
		memo[key] = out
		return out
	}
	for ni := range p.Nodes {
		for c := streams; c < k; c++ {
			prev, cur := ref.finalAt(ni*k+c-streams), ref.finalAt(ni*k+c)
			if prev < 0 || cur < 0 {
				continue
			}
			if !forcedAfter(prev, cur) {
				ref.fail(ClassOrder, cur,
					"node %d: chunk %d may complete before chunk %d — in-order claim unproven",
					p.Nodes[ni], c, c-streams)
			}
		}
	}
}
