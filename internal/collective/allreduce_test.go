package collective

import (
	"context"
	"math/rand"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

// sumInputs builds random per-node inputs and their element-wise sum. Values
// are small integers stored as float64 so summation is exact in any order.
func sumInputs(rng *rand.Rand, nodes, elems int) (inputs [][]float64, want []float64) {
	inputs = make([][]float64, nodes)
	want = make([]float64, elems)
	for i := range inputs {
		inputs[i] = make([]float64, elems)
		for j := range inputs[i] {
			inputs[i][j] = float64(rng.Intn(1000) - 500)
			want[j] += inputs[i][j]
		}
	}
	return inputs, want
}

func checkAllReduceData(t *testing.T, s *Schedule, rng *rand.Rand, elems int) {
	t.Helper()
	inputs, want := sumInputs(rng, len(s.Nodes), elems)
	out, err := s.ExecuteData(inputs)
	if err != nil {
		t.Fatalf("ExecuteData: %v", err)
	}
	for i := range out {
		for j := range out[i] {
			if out[i][j] != want[j] {
				t.Fatalf("node %d elem %d = %v, want %v", i, j, out[i][j], want[j])
			}
		}
	}
}

func TestAllAlgorithmsComputeAllReduceOnDGX1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, alg := range []Algorithm{AlgRing, AlgTree, AlgTreeOverlap, AlgDoubleTree, AlgDoubleTreeOverlap} {
		t.Run(alg.String(), func(t *testing.T) {
			s, err := Build(Config{Graph: dgx1(), Algorithm: alg, Bytes: 1 << 20, Chunks: 16})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			checkAllReduceData(t, s, rng, 4096)
		})
	}
}

func TestAllAlgorithmsComputeAllReduceGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []int{2, 4, 8, 16} {
		g := topology.FullyConnected(p, 25e9, 3*des.Microsecond)
		for _, alg := range []Algorithm{AlgRing, AlgTree, AlgTreeOverlap, AlgDoubleTree, AlgDoubleTreeOverlap} {
			// Fully connected single-channel pairs: the two trees of a
			// double tree must share channels, as on any real switched
			// network without duplicated links.
			s, err := Build(Config{Graph: g, Algorithm: alg, Bytes: 1 << 18, Chunks: 8,
				AllowSharedChannels: true})
			if err != nil {
				t.Fatalf("P=%d %v: %v", p, alg, err)
			}
			checkAllReduceData(t, s, rng, 1024)
		}
	}
}

func TestAllReduceDataPropertyRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := dgx1()
	for i := 0; i < 25; i++ {
		alg := []Algorithm{AlgRing, AlgTree, AlgTreeOverlap, AlgDoubleTree, AlgDoubleTreeOverlap}[rng.Intn(5)]
		chunks := rng.Intn(62) + 2
		elems := rng.Intn(5000) + chunks // at least one element per chunk
		s, err := Build(Config{Graph: g, Algorithm: alg, Bytes: int64(elems) * 4, Chunks: chunks})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		checkAllReduceData(t, s, rng, elems)
	}
}

func TestExecuteTimingBasics(t *testing.T) {
	for _, alg := range []Algorithm{AlgRing, AlgTree, AlgTreeOverlap, AlgDoubleTree, AlgDoubleTreeOverlap} {
		res, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: alg, Bytes: 64 << 20})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Total <= 0 {
			t.Fatalf("%v: total time %v", alg, res.Total)
		}
		if res.Turnaround <= 0 || res.Turnaround > res.Total {
			t.Fatalf("%v: turnaround %v outside (0, %v]", alg, res.Turnaround, res.Total)
		}
		for c := 1; c < len(res.ChunkDone); c++ {
			if res.ChunkDone[c] < res.ChunkDone[0] && res.InOrder {
				// Within a tree, chunks finish in order; across the two trees
				// of a double tree, interleaved chunks may finish slightly
				// out of global order, but chunk 0 is always first in tree 0.
				break
			}
		}
	}
}

func TestOverlappedTreeBeatsBaselineTree(t *testing.T) {
	// Paper Fig. 12(a): C1 consistently outperforms B on the DGX-1.
	for _, mb := range []int64{16, 64, 256} {
		bytes := mb << 20
		base, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTree, Bytes: bytes})
		if err != nil {
			t.Fatal(err)
		}
		over, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: bytes})
		if err != nil {
			t.Fatal(err)
		}
		if over.Total >= base.Total {
			t.Errorf("%dMB: overlapped %v >= baseline %v", mb, over.Total, base.Total)
		}
		speedup := float64(base.Total) / float64(over.Total)
		// The paper measures 75-80% improvement; the model's asymptote is 2x.
		if speedup < 1.5 || speedup > 2.05 {
			t.Errorf("%dMB: speedup %.2f outside [1.5, 2.05]", mb, speedup)
		}
	}
}

func TestSingleOverlapTreeMatchesDoubleTreeBandwidth(t *testing.T) {
	// Paper Fig. 6(c): a single overlapped tree is NOT faster overall than
	// the double tree — its win is the turnaround. Allow 25% slack.
	bytes := int64(64 << 20)
	double, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTree, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgTreeOverlap, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(single.Total) / float64(double.Total)
	if ratio < 0.75 || ratio > 1.25 {
		t.Errorf("single-overlap/double-tree total ratio = %.2f, want ~1", ratio)
	}
	if single.Turnaround >= double.Turnaround {
		t.Errorf("single overlapped turnaround %v >= double tree %v",
			single.Turnaround, double.Turnaround)
	}
}

func TestTurnaroundImprovementGrowsWithChunks(t *testing.T) {
	// Paper Fig. 14(b): with more chunks, the first chunk of the overlapped
	// tree no longer waits for the rest of the reduction.
	speedupAt := func(chunks int) float64 {
		bytes := int64(64 << 20)
		base, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTree, Bytes: bytes, Chunks: chunks})
		if err != nil {
			t.Fatal(err)
		}
		over, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: bytes, Chunks: chunks})
		if err != nil {
			t.Fatal(err)
		}
		return float64(base.Turnaround) / float64(over.Turnaround)
	}
	s16, s256 := speedupAt(16), speedupAt(256)
	if s256 <= s16 {
		t.Errorf("turnaround speedup did not grow with chunks: K=16 %.1fx, K=256 %.1fx", s16, s256)
	}
	if s256 < 5 {
		t.Errorf("turnaround speedup at K=256 = %.1fx, want large", s256)
	}
}

func TestInOrderPropertyPerNode(t *testing.T) {
	// Observation #3: within each tree, chunks become ready at every node in
	// chunk-index order. With round-robin assignment, tree 0 owns even
	// chunks and tree 1 odd chunks.
	res, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 8 << 20, Chunks: 32})
	if err != nil {
		t.Fatal(err)
	}
	for n := range res.ChunkReady {
		for _, start := range []int{0, 1} {
			prev := des.Time(-1)
			for c := start; c < len(res.ChunkReady[n]); c += 2 {
				if res.ChunkReady[n][c] < prev {
					t.Fatalf("node %d: chunk %d ready %v before chunk %d at %v",
						n, c, res.ChunkReady[n][c], c-2, prev)
				}
				prev = res.ChunkReady[n][c]
			}
		}
	}
	if !res.InOrder {
		t.Error("tree result not marked in-order")
	}
	ring, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgRing, Bytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if ring.InOrder {
		t.Error("ring result marked in-order")
	}
}

func TestOverlapOnSharedChannelsGivesNoBenefit(t *testing.T) {
	// The paper's impossibility claim: on a topology where the two trees
	// must share channels (no duplicated links), overlapping the double tree
	// buys little because broadcast and reduction serialize on the shared
	// channels. Build a "single-link DGX-1": same shape, no duplicates.
	g := topology.NewGraph()
	for i := 0; i < 8; i++ {
		g.AddNode(gpuNameT(i), topology.GPU)
	}
	links := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	}
	for _, l := range links {
		g.AddBidi(topology.NodeID(l[0]), topology.NodeID(l[1]), 25e9, 3*des.Microsecond, "nvlink")
	}
	t1, t2 := DGX1Trees()
	bytes := int64(64 << 20)
	base, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgDoubleTree, Bytes: bytes,
		Trees: []Tree{t1, t2}, AllowSharedChannels: true})
	if err != nil {
		t.Fatal(err)
	}
	over, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: bytes,
		Trees: []Tree{t1, t2}, AllowSharedChannels: true})
	if err != nil {
		t.Fatal(err)
	}
	shared := float64(base.Total) / float64(over.Total)

	// Same trees on the real DGX-1 (with duplicates) overlap fully.
	baseD, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTree, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	overD, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	dedicated := float64(baseD.Total) / float64(overD.Total)

	// With dedicated duplicated channels the overlap approaches its 2x
	// asymptote; forced sharing serializes broadcast against reduction on
	// the conflicting channels and gives up a substantial part of the win.
	if dedicated < 1.6 {
		t.Errorf("dedicated-channel overlap speedup %.2f, want >= 1.6", dedicated)
	}
	if shared > dedicated-0.2 {
		t.Errorf("shared-channel overlap speedup %.2f not clearly below dedicated %.2f",
			shared, dedicated)
	}
}

func gpuNameT(i int) string { return string(rune('A' + i)) }

func TestExclusiveRoutingFailsWithoutDuplicates(t *testing.T) {
	// Without AllowSharedChannels, the overlapped double tree must refuse to
	// build on a single-link topology (no free channel for the second tree).
	g := topology.NewGraph()
	for i := 0; i < 8; i++ {
		g.AddNode(gpuNameT(i), topology.GPU)
	}
	for _, l := range [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	} {
		g.AddBidi(topology.NodeID(l[0]), topology.NodeID(l[1]), 25e9, 3*des.Microsecond, "nvlink")
	}
	t1, t2 := DGX1Trees()
	_, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20,
		Trees: []Tree{t1, t2}})
	if err == nil {
		t.Fatal("overlapped double tree built without duplicated channels")
	}
}

func TestRingMatchesCostModelShape(t *testing.T) {
	// The DES ring time should approximate Eq. (2). On the DGX-1 two
	// link-disjoint rings each carry N/2 in parallel.
	bytes := int64(64 << 20)
	res, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgRing, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	alpha := (3 * des.Microsecond).Seconds()
	beta := 1 / 25e9
	want := 2*7*alpha + 2*(7.0/8.0)*beta*float64(bytes)/2
	got := res.Total.Seconds()
	if rel := abs(got-want) / want; rel > 0.05 {
		t.Errorf("ring time %v vs model %v (rel err %.3f)", got, want, rel)
	}
	// A single-ring embedding takes ~2x as long.
	single, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgRing, Bytes: bytes,
		RingOrders: [][]int{DGX1RingOrder()}})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(single.Total) / float64(res.Total); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("single/double ring ratio = %.2f, want ~2", ratio)
	}
}

func TestOverlappedTreeMatchesCostModelShape(t *testing.T) {
	// DES vs Eq. (7) on the generic fully connected topology (no detours to
	// distort the comparison). The model assumes uniform hop cost; allow 15%.
	bytes := int64(64 << 20)
	g := topology.FullyConnected(8, 25e9, 3*des.Microsecond)
	res, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgTreeOverlap, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	alpha := (3 * des.Microsecond).Seconds()
	beta := 1 / 25e9
	logP := 3.0
	n := float64(bytes)
	k := float64(res.Partition.NumChunks())
	want := (2*logP + k) * (alpha + beta*n/k)
	got := res.Total.Seconds()
	if rel := abs(got-want) / want; rel > 0.15 {
		t.Errorf("overlapped tree %v vs model %v (rel err %.3f)", got, want, rel)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestBuildErrors(t *testing.T) {
	g := dgx1()
	cases := []Config{
		{Graph: nil, Algorithm: AlgRing, Bytes: 1},
		{Graph: g, Algorithm: AlgRing, Bytes: 0},
		{Graph: g, Algorithm: Algorithm(99), Bytes: 1},
		{Graph: g, Algorithm: AlgRing, Bytes: 1 << 20, RingOrders: [][]int{{0, 1, 2}}},
		{Graph: g, Algorithm: AlgRing, Bytes: 1 << 20, RingOrders: [][]int{{0, 0, 1, 2, 3, 4, 5, 6}}},
	}
	for i, cfg := range cases {
		if _, err := Build(cfg); err == nil {
			t.Errorf("case %d: Build accepted invalid config", i)
		}
	}
}

func TestRingRequiresDirectChannels(t *testing.T) {
	// Identity ring order on DGX-1 hits the missing 3-4 edge.
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := Build(Config{Graph: dgx1(), Algorithm: AlgRing, Bytes: 1 << 20, RingOrders: [][]int{order}}); err == nil {
		t.Fatal("ring built over missing channel 3->4")
	}
}

func TestAutoChunkCount(t *testing.T) {
	s, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTree, Bytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := s.Partition.NumChunks()
	if k < 2 || k > MaxAutoChunks {
		t.Fatalf("auto chunk count %d outside [2, %d]", k, MaxAutoChunks)
	}
	// Larger messages get more chunks (K_opt grows with sqrt N).
	s2, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTree, Bytes: 512 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Partition.NumChunks() <= k {
		t.Errorf("chunk count did not grow with message size: %d -> %d", k, s2.Partition.NumChunks())
	}
}

func TestBandwidthMetric(t *testing.T) {
	res, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bw := res.Bandwidth()
	if bw <= 0 || bw > 16*25e9 {
		t.Fatalf("bandwidth %v implausible", bw)
	}
}

func TestDetourUsesIntermediateGPUChannels(t *testing.T) {
	// Tree 1's detour (2->4 via 0) must put traffic on channels 2->0 and
	// 0->4 during reduction.
	s, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 4 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	busyOn := func(a, b topology.NodeID) des.Time {
		var total des.Time
		for _, cid := range s.Graph.ChannelsBetween(a, b) {
			total += res.ChannelBusy[cid]
		}
		return total
	}
	if busyOn(2, 0) == 0 || busyOn(0, 4) == 0 {
		t.Error("detour channels 2->0 / 0->4 carried no traffic")
	}
	if busyOn(3, 1) == 0 || busyOn(1, 5) == 0 {
		t.Error("detour channels 3->1 / 1->5 carried no traffic")
	}
}

func TestForwardedBytesAndDetourNodes(t *testing.T) {
	s, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTransfers() == 0 {
		t.Fatal("no transfers")
	}
	fw := s.ForwardedBytes()
	// GPU0 forwards tree 1's detour (N/2 up + N/2 down); GPU1 tree 2's.
	for _, n := range []topology.NodeID{0, 1} {
		if fw[n] != 64<<20 {
			t.Errorf("GPU%d forwards %d bytes, want %d", n, fw[n], 64<<20)
		}
	}
	detours := s.DetourNodes()
	if len(detours) != 2 || detours[0] != 0 || detours[1] != 1 {
		t.Fatalf("detour nodes = %v, want [0 1]", detours)
	}
	// A ring schedule has no detours.
	ring, err := Build(Config{Graph: dgx1(), Algorithm: AlgRing, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(ring.DetourNodes()) != 0 {
		t.Fatal("ring reported detour nodes")
	}
}

func TestScheduleValidateCatchesCorruption(t *testing.T) {
	s, err := Build(Config{Graph: dgx1(), Algorithm: AlgTree, Bytes: 1 << 20, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a transfer's chunk index.
	s.ops[0].Chunk = 99
	if err := s.Validate(); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	s.ops[0].Chunk = 0
	// Corrupt a chunk's size.
	size := s.Partition.Sizes[0]
	s.Partition.Sizes[0] = 0
	if err := s.Validate(); err == nil {
		t.Error("zero-byte chunk accepted")
	}
	s.Partition.Sizes[0] = size
	// Introduce a dependency cycle.
	last := len(s.ops) - 1
	deps := s.depLists()
	deps[0] = append(deps[0], last)
	deps[last] = append(deps[last], 0)
	s.setDeps(deps)
	if err := s.Validate(); err == nil {
		t.Error("cyclic schedule accepted")
	}

	// Drop a dependency edge that orders a reduction before the send
	// reading its result. The old structural validator accepted this
	// silently — the schedule stays acyclic and well-indexed — but it is a
	// data hazard: under an adversarial interleaving the send can read the
	// chunk mid-reduction. The schedcheck hazard pass must reject it.
	s, err = Build(Config{Graph: dgx1(), Algorithm: AlgTree, Bytes: 1 << 20, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for i := range s.ops {
		tr := &s.ops[i]
		if caught || tr.Marker() || tr.Src.Relay >= 0 {
			continue
		}
		for di, d := range s.depsOf(i) {
			w := &s.ops[d]
			if w.Marker() || !w.Accumulate || w.Dst != tr.Src || w.Chunk != tr.Chunk {
				continue
			}
			deps := s.depLists()
			kept := deps[i]
			deps[i] = append(append([]int(nil), kept[:di]...), kept[di+1:]...)
			s.setDeps(deps)
			if err := s.Validate(); err != nil {
				caught = true
				break
			}
			// Edge was redundant (another path orders the pair); restore
			// and keep looking.
			deps[i] = kept
			s.setDeps(deps)
		}
	}
	if !caught {
		t.Error("dropped reduction->read dependency edge accepted")
	}
}

func TestResultBandwidthZeroTotal(t *testing.T) {
	r := &Result{}
	if r.Bandwidth() != 0 {
		t.Fatal("bandwidth of empty result not zero")
	}
}
