package schedcheck

// Reachability ("does op b transitively depend on op a?") is what the
// hazard, conservation and order classes ask, but only about a few pairs per
// op: two thirds of the questions name a direct dependency, and most of the
// rest stay inside one chunk or cross a phase barrier. So Check plans its
// questions before it builds any closure, in two passes over the columns the
// decode pass left (checks.go):
//
//   - topoSort orders the ops (Kahn's algorithm, lowest ready chunk first)
//     and hands out the barrier hubs' up labels on the way; hubLabels adds
//     the down labels in one reverse sweep;
//   - one sweep in that order plans hazards and conservation together, and
//     the order class plans its marker chains after it. A question is
//     settled on the spot when the target lists the source in Deps or a
//     barrier hub witnesses it (below); otherwise enqueue puts it on its
//     class's pending list and raises the source's horizon to the target's
//     position;
//   - buildClosure then computes a banded closure over topological
//     positions: row k holds the positions k+1 through hz[k] that k reaches.
//     Horizons are pushed forward along dependency edges first, so every
//     dependent's row covers at least its predecessors' bands and one
//     reverse sweep ORs rows exactly as the full closure would, only
//     narrower;
//   - answered tests each class's queued questions against the band. A
//     class the plan does not prove reports through its exact pass, whose
//     questions are planned the same way before the band is rebuilt once
//     for all of them (report). So every question reaches gets is either
//     settled or inside the band.
//
// The chunk-priority order keeps a chunk's ops together, so the band spans
// about one chunk's ops rather than the whole schedule. Only CheckDeep,
// whose contention pairs are arbitrary, builds the full triangle, which is
// the same band with every horizon at n-1, before its walks; they answer as
// they go.
//
// A barrier hub is a marker that announces nothing (Final == -1): the
// separated tree's barrier, the hierarchical box-ready and barrier markers,
// halving-doubling's step markers. The first 64 of them in topological
// order get one bit each; down[a] holds the hubs a reaches or is, up[b] the
// hubs that reach or are b, and down[a]&up[b] != 0 (a != b) proves a
// reaches b. A missing bit proves nothing and leaves the question to the
// band, so hubs change how questions are answered, never the answers.

// query is one reachability question queued for the band, by position.
type query struct{ a, b int32 }

// hubLabels fills ck.down from the hubs topoSort found, in one reverse
// sweep; without hubs neither label is used.
func (ck *checker) hubLabels() {
	if len(ck.hubs) == 0 {
		return
	}
	down, off, items := zeroed(ck.down, len(ck.topo)), ck.dependents.off, ck.dependents.items
	for i, h := range ck.hubs {
		down[h] = 1 << uint(i)
	}
	for k := len(ck.topo) - 1; k >= 0; k-- {
		id := ck.topo[k]
		lab := down[id]
		for _, d := range items[off[id]:off[id+1]] {
			lab |= down[d]
		}
		down[id] = lab
	}
	ck.down = down
}

// dependsOn reports whether b lists a among its direct dependencies, from
// b's row of the deps column: the sweep asks its questions about the op it
// is at, so that row is hot.
func (ck *checker) dependsOn(b, a int32) bool {
	for _, d := range ck.deps.row(int(b)) {
		if d == a {
			return true
		}
	}
	return false
}

// settled reports whether a reaches b without consulting any closure: a
// direct dependency or a hub witness.
func (ck *checker) settled(a, b int32) bool {
	return len(ck.hubs) > 0 && ck.down[a]&ck.up[b] != 0 || ck.dependsOn(b, a)
}

// enqueue queues the question (a, b), with pos[a] < pos[b], on pd.
func (ck *checker) enqueue(a, b int32, pd *pending) {
	pa, pb := ck.pos[a], ck.pos[b]
	pd.queries = append(pd.queries, query{pa, pb})
	if ck.hz[pa] < pb {
		ck.hz[pa] = pb
	}
}

// ask records that a class needs "a reaches b", queueing the question on pd
// unless it is settled. It returns false only when the answer is already
// known to be no. With the closure already built (CheckDeep) it answers at
// once.
func (ck *checker) ask(a, b int32, pd *pending) bool {
	switch {
	case ck.pos[b] <= ck.pos[a]:
		return false
	case !ck.plan:
		return ck.reaches(int(a), int(b))
	case ck.settled(a, b):
		return true
	}
	ck.enqueue(a, b, pd)
	return true
}

// need plans a question an exact pass will ask reaches later: unless the
// positions or a settling witness already answer it, it is queued on
// ck.exact (in the planned mode only; CheckDeep's closure is full).
func (ck *checker) need(a, b int) {
	if ck.plan && ck.pos[a] < ck.pos[b] && !ck.settled(int32(a), int32(b)) {
		ck.enqueue(int32(a), int32(b), &ck.exact)
	}
}

// answered reports whether every question in qs holds in the band.
func (ck *checker) answered(qs []query) bool {
	for _, q := range qs {
		if !ck.bandBit(int(q.a), int(q.b)) {
			return false
		}
	}
	return true
}

// buildClosure computes the closure rows for the current horizons, or the
// full triangle when ck.full is set. Planned horizons are first pushed
// forward along every dependency edge; that pass also lays out the rows,
// since a position's horizon is final once its predecessors are done.
func (ck *checker) buildClosure() {
	n := len(ck.topo)
	topo, pos, hz, off, items := ck.topo, ck.pos, ck.hz, ck.dependents.off, ck.dependents.items
	if ck.full {
		for k := range hz {
			hz[k] = int32(n - 1)
		}
	}
	rowOff := grow(ck.rowOff, n+1)
	rowOff[0] = 0
	for k, id := range topo {
		h := hz[k]
		rowOff[k+1] = rowOff[k] + rowWords(k, int(h))
		if ck.full {
			continue
		}
		for _, d := range items[off[id]:off[id+1]] {
			if pd := pos[d]; hz[pd] < h {
				hz[pd] = h
			}
		}
	}
	// Each row is cleared just before the sweep fills it, while it is in
	// cache, rather than in a pass of its own.
	closure := grow(ck.closure, rowOff[n])
	ck.rowOff, ck.closure = rowOff, closure
	for k := n - 1; k >= 0; k-- {
		row, base, h := closure[rowOff[k]:rowOff[k+1]], k>>6, hz[k]
		if len(row) == 0 {
			continue
		}
		clear(row)
		id := topo[k]
		for _, d := range items[off[id]:off[id+1]] {
			pd := pos[d]
			if pd > h {
				continue // past the band, and so are all of d's descendants
			}
			wi, bit := int(pd>>6)-base, uint64(1)<<uint(pd&63)
			if row[wi]&bit != 0 {
				continue // reached through an earlier dependent, whose row holds d's
			}
			row[wi] |= bit
			src := closure[rowOff[pd]:rowOff[pd+1]]
			dst := row[wi:]
			if len(src) > len(dst) {
				src = src[:len(dst)]
			}
			for j, x := range src {
				dst[j] |= x
			}
		}
	}
}

// rowWords is the length of position k's row under horizon h: words k>>6
// through h>>6, or none when k reaches nothing it must answer for.
func rowWords(k, h int) int {
	if h <= k {
		return 0
	}
	return h>>6 - k>>6 + 1
}

// row returns position k's closure row; word i covers positions
// 64*((k>>6)+i) onward.
func (ck *checker) row(k int) []uint64 {
	return ck.closure[ck.rowOff[k]:ck.rowOff[k+1]]
}

// bandBit tests position pb in position pa's row; pa < pb <= hz[pa].
func (ck *checker) bandBit(pa, pb int) bool {
	return ck.closure[ck.rowOff[pa]+pb>>6-pa>>6]&(1<<uint(pb&63)) != 0
}

// reaches reports whether a dependency path a -> ... -> b exists (b
// transitively depends on a). Every question it gets was planned, so one
// outside the band is settled by a direct dependency or hub label.
func (ck *checker) reaches(a, b int) bool {
	pa, pb := int(ck.pos[a]), int(ck.pos[b])
	if pb <= pa {
		return false
	}
	if pb > int(ck.hz[pa]) {
		if !ck.settled(int32(a), int32(b)) {
			panic("schedcheck: reachability question outside the planned band")
		}
		return true
	}
	return ck.bandBit(pa, pb)
}

// pathBetween reports a dependency path in either direction.
func (ck *checker) pathBetween(a, b int) bool {
	if ck.pos[a] > ck.pos[b] {
		a, b = b, a
	}
	return ck.reaches(a, b)
}
