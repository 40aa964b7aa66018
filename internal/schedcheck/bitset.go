package schedcheck

import "sync"

// The reachability closure is a bit matrix over topological positions: row
// k holds one bit per position after k (only a later position can depend on
// an earlier one), starting at word k>>6, and all rows share one flat
// []uint64. That is about N^2/16 bytes — half a square N-bit matrix — built
// once per Check in one reverse-topological sweep that ORs each dependent's
// row into its predecessor's. reaches is then a position compare plus one
// bit test.

// rowStart returns the offset of position k's row in ck.closure: the rows
// before it hold words-(j>>6) words each, for j < k.
func (ck *checker) rowStart(k int) int {
	q, r := k>>6, k&63
	return k*ck.words - 32*q*(q-1) - q*r
}

// row returns position k's closure row; word i covers positions
// 64*((k>>6)+i) onward.
func (ck *checker) row(k int) []uint64 {
	start := ck.rowStart(k)
	return ck.closure[start : start+ck.words-k>>6]
}

// closurePool recycles closure buffers across checks: a cold request
// verifies schedules of thousands of ops, and a fresh multi-megabyte buffer
// per check costs page faults and garbage-collection cycles.
var closurePool sync.Pool // of *[]uint64

// computeReach builds the closure from the dependents index topoSort made,
// in a pooled buffer that releaseReach returns.
func (ck *checker) computeReach() {
	n := len(ck.topo)
	ck.words = (n + 63) >> 6
	size := ck.rowStart(n)
	if b, _ := closurePool.Get().(*[]uint64); b != nil && cap(*b) >= size {
		ck.closure = (*b)[:size]
	} else {
		ck.closure = make([]uint64, size)
	}
	for k := n - 1; k >= 0; k-- {
		row, base := ck.row(k), k>>6
		clear(row)
		for _, d := range ck.dependents.row(ck.topo[k]) {
			pd := int(ck.pos[d])
			wi, bit := pd>>6-base, uint64(1)<<uint(pd&63)
			if row[wi]&bit != 0 {
				continue // reached through an earlier dependent, whose row holds d's
			}
			row[wi] |= bit
			src := ck.row(pd)
			dst := row[wi : wi+len(src)]
			for j, x := range src {
				dst[j] |= x
			}
		}
	}
}

// releaseReach returns the closure buffer to the pool; reaches must not be
// called afterwards.
func (ck *checker) releaseReach() {
	b := ck.closure[:0]
	ck.closure = nil
	closurePool.Put(&b)
}

// reaches reports whether a dependency path a -> ... -> b exists (b
// transitively depends on a).
func (ck *checker) reaches(a, b int) bool {
	pa, pb := int(ck.pos[a]), int(ck.pos[b])
	if pb <= pa {
		return false
	}
	return ck.closure[ck.rowStart(pa)+pb>>6-pa>>6]&(1<<uint(pb&63)) != 0
}

// pathBetween reports a dependency path in either direction.
func (ck *checker) pathBetween(a, b int) bool {
	if ck.pos[a] > ck.pos[b] {
		a, b = b, a
	}
	return ck.reaches(a, b)
}
