package collective

import (
	"fmt"
	"math/bits"

	"ccube/internal/chunk"
	"ccube/internal/topology"
)

// buildHalvingDoublingSchedule constructs the recursive halving-doubling
// AllReduce of Thakur et al. [52], the paper's canonical HPC reference for
// bandwidth-optimal collectives at logarithmic depth:
//
//   - recursive-halving reduce-scatter: in step s (0..d-1), rank r exchanges
//     with partner r XOR (P >> (s+1)); each sends the half of its current
//     responsibility block that belongs to the partner's subcube, halving
//     the block every step. After d = log2(P) steps rank r holds the fully
//     reduced chunk r.
//   - recursive-doubling all-gather: the mirror image, doubling the held
//     block every step.
//
// Total cost: 2·log2(P)·α + 2·βN·(P-1)/P — the ring's bandwidth term at the
// tree's latency. On the DGX-1 hybrid mesh-cube every XOR-distance pair
// (quad neighbors and cube cross-links) has a direct NVLink, so the
// algorithm embeds without detours; it serves as a second strong baseline
// beyond ring and double tree.
//
// Like the ring — and unlike the tree — halving-doubling is *not* in-order:
// the chunk a rank completes first is its own subcube's, which differs per
// rank, so gradient queuing cannot chain on it.
func buildHalvingDoublingSchedule(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition) (*Schedule, error) {
	p := len(nodes)
	if p < 2 || p&(p-1) != 0 {
		return nil, fmt.Errorf("collective: halving-doubling needs a power-of-two participant count, got %d", p)
	}
	if part.NumChunks() != p {
		return nil, fmt.Errorf("collective: halving-doubling requires exactly P=%d chunks, got %d", p, part.NumChunks())
	}
	d := bits.TrailingZeros(uint(p))

	s := newSchedule(g, nodes, part)
	s.InOrder = false
	s.Contract = ContractAllReduce
	// Each step of both phases sends p*block chunks, block = p>>(step+1),
	// and adds p step markers joining 2*block sends each. All-gather sends,
	// and reduce-scatter sends after the first step, depend on the chunk's
	// last arrival and the rank's previous step; so do the p readiness
	// markers between the phases.
	ops, ndeps := p, 2*p
	for step := 0; step < d; step++ {
		block := p >> (step + 1)
		ops += 2 * (p*block + p)
		ndeps += 4*p*block + 2*p*block // step markers, all-gather sends
		if step > 0 {
			ndeps += 2 * p * block // reduce-scatter sends
		}
	}
	s.reserve(ops, ndeps)

	channel := func(from, to int) (topology.ChannelID, error) {
		chs := g.ChannelsBetween(nodes[from], nodes[to])
		if len(chs) == 0 {
			return 0, fmt.Errorf("collective: halving-doubling needs a direct channel %v->%v",
				nodes[from], nodes[to])
		}
		return chs[0], nil
	}

	// arrival[r*p+c] = transfer id that last updated chunk c at rank r
	// (reduce-scatter accumulation or all-gather overwrite); -1 = only the
	// local contribution so far.
	arrival := make([]int, p*p)
	for i := range arrival {
		arrival[i] = -1
	}

	// blockOf returns the chunk range owned by rank r after s halving steps:
	// chunks sharing r's top s bits (block size P >> s).
	blockOf := func(r, s int) (lo, hi int) {
		size := p >> s
		lo = (r / size) * size
		return lo, lo + size
	}

	// stepDone[r] joins everything rank r sent and received in the previous
	// step: the persistent kernel processes steps in lockstep, which is what
	// gives the algorithm its closed-form cost (per-chunk pipelining across
	// steps would be a different — and on this simulator slightly faster —
	// algorithm).
	stepDone := make([]int, p)
	for r := range stepDone {
		stepDone[r] = -1
	}
	deps := make([]int, 0, p) // scratch
	// send appends rank r's transfer of chunk c to partner, depending on
	// the chunk's last update at r (per from) and r's previous step.
	send := func(ch topology.ChannelID, r, partner, c int, accumulate, first bool, from []int) int {
		deps = deps[:0]
		if prev := from[r*p+c]; prev >= 0 {
			deps = append(deps, prev)
		}
		if stepDone[r] >= 0 {
			deps = append(deps, stepDone[r])
		}
		id := s.addTransfer(ch, c, nodes[r], nodes[partner], accumulate, deps...)
		s.ops[id].NoAlpha = !first
		arrival[partner*p+c] = id
		return id
	}
	// stepMarkers joins, per rank, everything it sent and received in one
	// step. The step's sends start at id base, rank by rank, block each, so
	// rank r's activity is its own sends and its partner's, in id order.
	stepMarkers := func(step, base int) {
		block := p >> (step + 1)
		for r := 0; r < p; r++ {
			lo, hi := r, r^(p>>(step+1))
			if hi < lo {
				lo, hi = hi, lo
			}
			deps = deps[:0]
			for _, x := range [2]int{lo, hi} {
				for i := 0; i < block; i++ {
					deps = append(deps, base+x*block+i)
				}
			}
			stepDone[r] = s.addMarker(0, -1, deps...)
		}
	}

	// Reduce-scatter.
	for step := 0; step < d; step++ {
		base := len(s.ops)
		for r := 0; r < p; r++ {
			partner := r ^ (p >> (step + 1))
			lo, hi := blockOf(partner, step+1) // the half that leaves r
			ch, err := channel(r, partner)
			if err != nil {
				return nil, err
			}
			for c := lo; c < hi; c++ {
				send(ch, r, partner, c, true, c == lo, arrival)
			}
		}
		stepMarkers(step, base)
	}
	// Rank r now owns fully reduced chunk r. Readiness must cover every
	// accumulation into (r, chunk r), not just the last step's: earlier-step
	// receives ride other channels and, on heterogeneous links, can still be
	// in flight when the final step's receive lands. stepDone[r] chains
	// through all of rank r's receives, closing that gap (found by
	// schedcheck's conservation pass).
	for r := 0; r < p; r++ {
		deps = deps[:0]
		if prev := arrival[r*p+r]; prev >= 0 {
			deps = append(deps, prev)
		}
		if stepDone[r] >= 0 {
			deps = append(deps, stepDone[r])
		}
		arrival[r*p+r] = s.addMarker(r, nodes[r], deps...)
	}

	// All-gather: doubling, reversing the halving order. Both directions of
	// a step exchange blocks simultaneously, based on the pre-step arrivals.
	snapshot := make([]int, p*p)
	for step := d - 1; step >= 0; step-- {
		copy(snapshot, arrival)
		base := len(s.ops)
		for r := 0; r < p; r++ {
			partner := r ^ (p >> (step + 1))
			lo, hi := blockOf(r, step+1) // r's currently held block
			ch, err := channel(r, partner)
			if err != nil {
				return nil, err
			}
			for c := lo; c < hi; c++ {
				id := send(ch, r, partner, c, false, c == lo, snapshot)
				s.ops[id].Final = nodes[partner]
			}
		}
		stepMarkers(step, base)
	}
	return s, nil
}
