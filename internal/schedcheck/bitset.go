package schedcheck

// Reachability ("does op b transitively depend on op a?") is what the
// hazard, conservation and order classes ask, but only about a few pairs per
// op: two thirds of the questions name a direct dependency, and most of the
// rest stay inside one chunk or cross a phase barrier. So Check plans its
// questions before it builds any closure:
//
//   - ask settles a question on the spot when the target lists the source in
//     Deps, or when a barrier hub witnesses it (below), and queues it
//     otherwise, raising the source's horizon to the target's position;
//   - buildClosure then computes a banded closure over topological
//     positions: row k holds the positions k+1 through hz[k] that k reaches.
//     Horizons are pushed forward along dependency edges first, so every
//     dependent's row covers at least its predecessors' bands and one
//     reverse sweep ORs rows exactly as the full closure would, only
//     narrower;
//   - answered tests the queued questions against the band.
//
// The chunk-priority topological order (topoSort) keeps a chunk's ops
// together, so the band spans about one chunk's ops rather than the whole
// schedule. Anything without a plan — CheckDeep's contention pairs, an
// exact reporting path that asks outside the band after a failure — uses the
// full triangle, which is the same band with every horizon at n-1.
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
// sweep; without hubs both labels stay nil.
func (ck *checker) hubLabels() {
	if ck.up == nil {
		return
	}
	ck.down = make([]uint64, len(ck.topo))
	for i, h := range ck.hubs {
		ck.down[h] = 1 << uint(i)
	}
	for k := len(ck.topo) - 1; k >= 0; k-- {
		id := ck.topo[k]
		for _, d := range ck.dependents.row(int(id)) {
			ck.down[id] |= ck.down[d]
		}
	}
}

// dependsOn reports whether b lists a among its direct dependencies. It
// scans a's row of the compact dependents index rather than b's Deps, which
// would pull b's whole Op into cache for one comparison.
func (ck *checker) dependsOn(b, a int) bool {
	for _, d := range ck.dependents.row(a) {
		if int(d) == b {
			return true
		}
	}
	return false
}

// settled reports whether a reaches b without consulting any closure: a
// direct dependency or a hub witness.
func (ck *checker) settled(a, b int) bool {
	return (ck.up != nil && ck.down[a]&ck.up[b] != 0) || ck.dependsOn(b, a)
}

// enqueue queues the question (a, b), with pos[a] < pos[b], for the band.
func (ck *checker) enqueue(a, b int) {
	pa, pb := ck.pos[a], ck.pos[b]
	ck.queries = append(ck.queries, query{pa, pb})
	if ck.hz[pa] < pb {
		ck.hz[pa] = pb
	}
}

// ask records that a class needs "a reaches b". It returns false only when
// the answer is already known to be no; a queued question is answered by
// answered once the closure exists. With the closure already built
// (CheckDeep) it answers at once.
func (ck *checker) ask(a, b int) bool {
	switch {
	case ck.pos[b] <= ck.pos[a]:
		return false
	case ck.rowOff != nil: // the closure is built
		return ck.reaches(a, b)
	case ck.settled(a, b):
		return true
	}
	ck.enqueue(a, b)
	return true
}

// answered reports whether every question queued in ck.queries[from:to]
// holds in the band.
func (ck *checker) answered(from, to int) bool {
	for _, q := range ck.queries[from:to] {
		if !ck.bandBit(int(q.a), int(q.b)) {
			return false
		}
	}
	return true
}

// buildClosure computes the closure rows for the current horizons, or the
// full triangle when there are none. Planned horizons are first pushed
// forward along every dependency edge; that pass also lays out the rows,
// since a position's horizon is final once its predecessors are done.
func (ck *checker) buildClosure() {
	n := len(ck.topo)
	full := ck.hz == nil
	if full {
		ck.hz = make([]int32, n)
		for k := range ck.hz {
			ck.hz[k] = int32(n - 1)
		}
	}
	ck.rowOff = make([]int, n+1)
	for k, id := range ck.topo {
		h := ck.hz[k]
		ck.rowOff[k+1] = ck.rowOff[k] + rowWords(k, int(h))
		if full {
			continue
		}
		for _, d := range ck.dependents.row(int(id)) {
			if pd := ck.pos[d]; ck.hz[pd] < h {
				ck.hz[pd] = h
			}
		}
	}
	ck.closure = make([]uint64, ck.rowOff[n])
	for k := n - 1; k >= 0; k-- {
		row, base, hz := ck.row(k), k>>6, ck.hz[k]
		if len(row) == 0 {
			continue
		}
		for _, d := range ck.dependents.row(int(ck.topo[k])) {
			pd := ck.pos[d]
			if pd > hz {
				continue // past the band, and so are all of d's descendants
			}
			wi, bit := int(pd>>6)-base, uint64(1)<<uint(pd&63)
			if row[wi]&bit != 0 {
				continue // reached through an earlier dependent, whose row holds d's
			}
			row[wi] |= bit
			src := ck.row(int(pd))
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
// transitively depends on a). A question outside the band that no direct
// dependency settles was not planned; it rebuilds the closure as the full
// triangle, so every answer is exact whatever was planned.
func (ck *checker) reaches(a, b int) bool {
	pa, pb := int(ck.pos[a]), int(ck.pos[b])
	if pb <= pa {
		return false
	}
	if ck.up != nil && ck.down[a]&ck.up[b] != 0 {
		return true
	}
	if pb > int(ck.hz[pa]) {
		if ck.dependsOn(b, a) {
			return true
		}
		ck.hz = nil
		ck.buildClosure()
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
