package collective

import (
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/topology"
)

// buildRingSchedule constructs the ring AllReduce (paper Fig. 5(b)),
// generalized to multiple link-disjoint rings as NCCL builds on the DGX-1
// to use every NVLink: the message is split across the rings, and each ring
// independently runs P-1 reduce-scatter steps followed by P-1 all-gather
// steps over its own Hamiltonian embedding.
//
// The partition must hold exactly P * len(orders) chunks; ring r owns the
// global chunks {c : c % len(orders) == r}, and within a ring, position i
// (orders[r][i]) is responsible for reducing the ring's i-th chunk.
//
// The ring algorithm is bandwidth-optimal but *not* in-order: the chunk each
// participant completes first differs per participant (Observation #3), so a
// consumer must wait for the whole operation (Schedule.InOrder = false).
func buildRingSchedule(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, orders [][]int) (*Schedule, error) {
	p := len(nodes)
	if p < 2 {
		return nil, fmt.Errorf("collective: ring needs >= 2 participants, got %d", p)
	}
	if len(orders) == 0 {
		return nil, fmt.Errorf("collective: no ring orders")
	}
	if part.NumChunks() != p*len(orders) {
		return nil, fmt.Errorf("collective: %d rings over %d participants require exactly %d chunks, got %d",
			len(orders), p, p*len(orders), part.NumChunks())
	}
	s := newSchedule(g, nodes, part)
	s.InOrder = false
	s.Contract = ContractAllReduce
	// Per ring: p(p-1) reduce-scatter sends, all but the first step's
	// chained to their predecessor, p done markers and p(p-1) chained
	// all-gather sends.
	rings := len(orders)
	s.reserve(rings*(2*p*(p-1)+p), rings*(p*(p-2)+p+p*(p-1)))
	router := topology.NewRouter(g)
	for r, order := range orders {
		if err := validateRingOrder(order, p); err != nil {
			return nil, fmt.Errorf("collective: ring %d: %w", r, err)
		}
		if err := buildOneRing(s, router, order, r, len(orders)); err != nil {
			return nil, fmt.Errorf("collective: ring %d: %w", r, err)
		}
	}
	return s, nil
}

func validateRingOrder(order []int, p int) error {
	if len(order) != p {
		return fmt.Errorf("order has %d entries for %d participants", len(order), p)
	}
	seen := make([]bool, p)
	for _, v := range order {
		if v < 0 || v >= p || seen[v] {
			return fmt.Errorf("order %v is not a permutation", order)
		}
		seen[v] = true
	}
	return nil
}

// buildOneRing adds one ring's transfers. Ring-local chunk j maps to global
// chunk j*numRings + ringIdx.
func buildOneRing(s *Schedule, router *topology.Router, order []int, ringIdx, numRings int) error {
	p := len(order)
	nodes := s.Nodes
	global := func(j int) int { return ((j%p)+p)%p*numRings + ringIdx }
	node := func(pos int) topology.NodeID { return nodes[order[((pos%p)+p)%p]] }

	// next[i] = physical channel from ring position i to position i+1,
	// claimed exclusively so that link-disjoint rings stay disjoint.
	next := make([]topology.ChannelID, p)
	for i := 0; i < p; i++ {
		from := node(i)
		to := node(i + 1)
		rt, err := router.Route(from, to)
		if err != nil || !rt.Direct() {
			return fmt.Errorf("hop %v->%v needs a direct channel: %v", from, to, err)
		}
		next[i] = rt.Channels[0]
	}

	// Reduce-scatter: at step s, position i sends ring chunk (i-s) to i+1,
	// which accumulates it. rs[pos*(p-1)+step] is that send's id.
	prev := func(pos int) int { return ((pos-1)%p + p) % p }
	rs := make([]int, p*(p-1))
	for step := 0; step < p-1; step++ {
		for pos := 0; pos < p; pos++ {
			c := global(pos - step)
			id := s.addTransfer(next[pos], c, node(pos), node(pos+1), true)
			if step > 0 {
				s.addDep(rs[prev(pos)*(p-1)+step-1])
			}
			rs[pos*(p-1)+step] = id
		}
	}

	// After reduce-scatter, position i holds the fully reduced ring chunk
	// (i+1) mod p.
	for pos := 0; pos < p; pos++ {
		s.addMarker(global(pos+1), node(pos), rs[prev(pos)*(p-1)+p-2])
	}

	// All-gather: at step s, position i sends ring chunk (i+1-s) to i+1,
	// overwriting.
	ag := make([]int, p*(p-1))
	for step := 0; step < p-1; step++ {
		for pos := 0; pos < p; pos++ {
			dep := rs[prev(pos)*(p-1)+p-2]
			if step > 0 {
				dep = ag[prev(pos)*(p-1)+step-1]
			}
			id := s.addTransfer(next[pos], global(pos+1-step), node(pos), node(pos+1), false, dep)
			s.ops[id].Final = node(pos + 1)
			ag[pos*(p-1)+step] = id
		}
	}
	return nil
}

// DGX1RingOrder returns the primary Hamiltonian cycle of the DGX-1 hybrid
// mesh-cube using only direct NVLinks: 0-1-2-3-7-6-5-4-0 (3-7 and 4-0 are
// cube cross-links).
func DGX1RingOrder() []int { return []int{0, 1, 2, 3, 7, 6, 5, 4} }

// DGX1RingOrders returns two link-disjoint Hamiltonian cycles of the hybrid
// mesh-cube. Where both cycles cross the same GPU pair ({0,1}, {4,5},
// {3,7}), the pair carries two parallel NVLinks, so the rings get dedicated
// channels — NCCL builds multiple rings on the DGX-1 the same way to use
// all six NVLinks per GPU.
func DGX1RingOrders() [][]int {
	return [][]int{
		{0, 1, 2, 3, 7, 6, 5, 4},
		{0, 2, 6, 4, 5, 7, 3, 1},
	}
}
