package schedcheck_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// derived returns p's derivative at k chunks under the certificate ph, over
// p's first k chunk sizes (any positive sizes serve).
func derived(p *schedcheck.Program, ph *schedcheck.Phases, k int) *schedcheck.Program {
	d := *p
	d.NumChunks, d.ChunkBytes = k, p.ChunkBytes[:k]
	d.Ops, d.DepOff, d.DepList = ph.Derive(p, k)
	return &d
}

// samePrograms reports whether a and b hold the same ops and dependency CSR.
func samePrograms(a, b *schedcheck.Program) bool {
	return a.NumChunks == b.NumChunks && a.Streams == b.Streams && reflect.DeepEqual(a.Ops, b.Ops) &&
		reflect.DeepEqual(a.DepOff, b.DepOff) && reflect.DeepEqual(a.DepList, b.DepList)
}

// packedTrees returns the routed trees synth packs over g's GPUs, or skips
// t when it packs none.
func packedTrees(t testing.TB, g *topology.Graph) []collective.RoutedTree {
	t.Helper()
	forest, err := synth.PackForest(g, g.GPUs(), synth.DefaultMaxTrees, 0, true)
	if err != nil {
		t.Skip(err) // no spanning tree over the fabric's GPU links
	}
	trees := make([]collective.RoutedTree, len(forest.Trees))
	for i, tr := range forest.Trees {
		trees[i] = tr.RoutedTree
	}
	return trees
}

// forestProgram is the program of the forest over trees at k chunks, laid
// out chunk by chunk as a synthesized schedule is.
func forestProgram(t testing.TB, g *topology.Graph, trees []collective.RoutedTree, k int) *schedcheck.Program {
	t.Helper()
	s, err := collective.AssembleForest(g, g.GPUs(), chunk.Split(64<<20, k), trees)
	if err != nil {
		t.Fatal(err)
	}
	return s.Program()
}

// checkDerivatives pins ph, p's certificate, at every chunk count k from
// p's stream count to its own: the derivative is the program want(k)
// returns, shares p's arrays exactly when nothing moves (one phase, or
// k = NumChunks), and passes the full Check at every eighth k.
func checkDerivatives(t *testing.T, p *schedcheck.Program, ph *schedcheck.Phases, onePhase bool, want func(k int) *schedcheck.Program) {
	t.Helper()
	for k := max(p.Streams, 1); k <= p.NumChunks; k++ {
		d := derived(p, ph, k)
		if !samePrograms(d, want(k)) {
			t.Fatalf("k=%d: the derivative differs from a cold build's program", k)
		}
		if shares := &d.Ops[0] == &p.Ops[0]; shares != (onePhase || k == p.NumChunks) {
			t.Fatalf("k=%d: the derivative shares the program's ops = %v", k, shares)
		}
		if k%8 == 0 {
			if r := schedcheck.CheckFull(d); !r.OK() {
				t.Fatalf("k=%d: %s", k, r.Err())
			}
		}
	}
}

// TestPhasePrefixesQualifyByLayout: one certificate serves both layouts.
// The overlapped tree and C-Cube (one phase, chunk-major) and the separated
// tree and double tree (two phases) qualify on the DGX-1, fc:8, fc:16,
// cluster:32 and cluster:64, shared channels or not, and so do synthesized
// forests on the DGX-1, fcasym:8 and rr:16; each derivative at k chunks is
// the program a cold build emits for k. The ring and halving-doubling have
// no such layout and the hierarchical schedules' barriers are not one per
// stream: neither qualifies. Which layouts the built-ins choose, and at
// which chunk counts, is TestChunkPrefixesQualifyByLayout's.
func TestPhasePrefixesQualifyByLayout(t *testing.T) {
	for _, fab := range []struct {
		name  string
		graph *topology.Graph
	}{
		{"dgx1", dgx1()},
		{"fc8", fullyConnected(8)},
		{"cluster32", topology.Hierarchy(topology.DefaultHierarchyConfig(32))},
		{"fc16", fullyConnected(16)},
		{"cluster64", topology.Hierarchy(topology.DefaultHierarchyConfig(64))},
	} {
		for _, alg := range allAlgorithms {
			for _, shared := range []bool{false, true} {
				cfg := collective.Config{Graph: fab.graph, Algorithm: alg, Bytes: 64 << 20, Chunks: 40, AllowSharedChannels: shared}
				if _, err := collective.Build(cfg); err != nil {
					continue
				}
				t.Run(fmt.Sprintf("%s/%v/shared=%v", fab.name, alg, shared), func(t *testing.T) {
					p := buildProgram(t, cfg)
					ph := schedcheck.PhasePrefixes(p)
					onePhase := alg == collective.AlgTreeOverlap || alg == collective.AlgDoubleTreeOverlap
					if want := onePhase || alg == collective.AlgTree || alg == collective.AlgDoubleTree; (ph != nil) != want {
						t.Fatalf("qualifies = %v, want %v", ph != nil, want)
					}
					if ph != nil {
						checkDerivatives(t, p, ph, onePhase, func(k int) *schedcheck.Program {
							at := cfg
							at.Chunks = k
							return buildProgram(t, at)
						})
					}
				})
			}
		}
	}
	for _, name := range []string{"dgx1", "fcasym:8", "rr:16"} {
		t.Run(name+"/forest", func(t *testing.T) {
			g, err := topology.Named(name)
			if err != nil {
				t.Fatal(err)
			}
			trees := packedTrees(t, g)
			p := forestProgram(t, g, trees, 40)
			ph := schedcheck.PhasePrefixes(p)
			if ph == nil {
				t.Fatal("a forest was refused")
			}
			checkDerivatives(t, p, ph, true, func(k int) *schedcheck.Program { return forestProgram(t, g, trees, k) })
		})
	}
	for _, chained := range []bool{false, true} {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		s, err := collective.BuildHierarchical(collective.HierarchicalConfig{Cluster: mn, Bytes: 64 << 20, Chunks: 32, Chained: chained})
		if err != nil {
			t.Fatal(err)
		}
		if schedcheck.PhasePrefixes(s.Program()) != nil {
			t.Errorf("hierarchical (chained=%v) qualified", chained)
		}
	}
}

// barriers returns the barrier of each stream of p, whose dependencies are
// deps: the op some op of a lower chunk depends on. It is empty for a
// program without barriers.
func barriers(p *schedcheck.Program, deps [][]int) map[int]int {
	out := map[int]int{}
	for i, ds := range deps {
		for _, d := range ds {
			if p.Ops[d].Chunk > p.Ops[i].Chunk {
				out[int(p.Ops[d].Chunk)%max(p.Streams, 1)] = d
			}
		}
	}
	return out
}

// The barrier mutations, by kind.
const (
	dropBarrierDep    = iota // a root send no longer waits for its barrier
	repointBarrier           // the barrier waits for chunk c's root-ready marker instead
	crossStream              // an op waits for another stream's barrier
	ancestorOnBarrier        // a reduction waits for its own barrier: a cycle
	sinkFed                  // an op waits for chunk c's root-ready marker
	numBarrierMutations
)

// barrierMutation applies barrier mutation kind to chunk c of p, whose
// dependencies are deps and whose barriers per stream are bars, unless the
// chunk has no op it applies to. pick chooses among the chunk's candidates
// by their order in the chunk.
func barrierMutation(p *schedcheck.Program, deps [][]int, bars map[int]int, c, kind int, pick uint16) {
	streams := max(p.Streams, 1)
	b := bars[c%streams]
	inChunk := func(keep func(i int) bool) int {
		var ids []int
		for i := range p.Ops {
			if int(p.Ops[i].Chunk) == c && i != b && keep(i) {
				ids = append(ids, i)
			}
		}
		if len(ids) == 0 {
			return -1
		}
		return ids[int(pick)%len(ids)]
	}
	rootReady := inChunk(func(i int) bool { return p.Ops[i].Marker() && p.Ops[i].Final >= 0 })
	switch kind {
	case dropBarrierDep:
		if x := inChunk(func(i int) bool { return slices.Contains(deps[i], b) }); x >= 0 {
			deps[x] = slices.DeleteFunc(deps[x], func(d int) bool { return d == b })
		}
	case repointBarrier:
		if rootReady >= 0 && int(p.Ops[b].Chunk) != c {
			deps[b] = []int{rootReady}
		}
	case crossStream:
		if streams < 2 {
			return
		}
		other := bars[(c+1+int(pick)%(streams-1))%streams]
		if x := inChunk(func(i int) bool { return !slices.Contains(deps[i], other) }); x >= 0 {
			deps[x] = append(deps[x], other)
		}
	case ancestorOnBarrier:
		if x := inChunk(func(i int) bool { return p.Ops[i].Accumulate }); x >= 0 {
			deps[x] = append(deps[x], b)
		}
	default: // sinkFed
		if rootReady < 0 || int(p.Ops[b].Chunk) == c {
			return
		}
		if x := inChunk(func(i int) bool { return i != rootReady && !slices.Contains(deps[i], rootReady) }); x >= 0 {
			deps[x] = append(deps[x], rootReady)
		}
	}
}

// reductionFIFO returns the reduction FIFO edges of p, whose dependencies
// are deps and whose barriers per stream are bars: each as (op, index in
// its list) of a transfer's dependency on an op of chunk c-t below its
// stream's barrier.
func reductionFIFO(p *schedcheck.Program, deps [][]int, bars map[int]int) [][2]int {
	t := max(p.Streams, 1)
	var out [][2]int
	for i, ds := range deps {
		op := &p.Ops[i]
		b, ok := bars[int(op.Chunk)%t]
		if op.Marker() || !ok || i > b {
			continue
		}
		for j, d := range ds {
			if p.Ops[d].Chunk+int32(t) == op.Chunk {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// The reduction FIFO mutations, after the barrier mutations.
const (
	dropFIFO = numBarrierMutations + iota // drop one reduction FIFO edge
	skipFIFO                              // lift one a chunk up, and the in-order claim
	numPhaseMutations
)

// fifoMutation applies FIFO mutation kind to p, whose dependencies are deps
// and whose barriers per stream are bars, on the edge pick chooses, and
// reports whether it changed p. skipFIFO moves edge d -> x, x of chunk c,
// to d -> y, y the op of chunk c+t that x's FIFO edge leads to, so d's
// chunk no longer waits for chunk c: the proof still holds once the
// program stops claiming in-order delivery, but a derivative ending at
// chunk c may broadcast d's chunk before d lands, unless the reach rule
// refuses the carrier.
func fifoMutation(p *schedcheck.Program, deps [][]int, bars map[int]int, kind int, pick uint16) bool {
	edges := reductionFIFO(p, deps, bars)
	if len(edges) == 0 {
		return false
	}
	e := edges[int(pick)%len(edges)]
	x, d := e[0], deps[e[0]][e[1]]
	if kind == skipFIFO {
		y := -1
		for _, f := range edges {
			if deps[f[0]][f[1]] == x {
				y = f[0]
			}
		}
		if y < 0 {
			return false
		}
		deps[y] = append(deps[y], d)
		p.InOrder = false
	}
	deps[x] = slices.Delete(deps[x], e[1], e[1]+1)
	return true
}

// FuzzPhasePrefix draws a fabric (the DGX-1, fc:n up to 16, cluster:n up to
// 32), a carrier kind (the separated tree or double tree, in two phases;
// C-Cube or a packed forest, in one), the sharing flag and a chunk count K
// up to 64, then mutates the carrier: one of five barrier mutations
// (barrierMutation) at a drawn chunk, a dropped or lifted reduction FIFO
// edge (fifoMutation), or nothing (a one-phase carrier has neither barrier
// nor FIFO edge below one, so it stays pristine). Whenever the mutant
// passes Check and PhasePrefixes accepts it, its derivative at every k
// from the stream count to K must pass the full Check: the certificate
// must never admit a proved carrier whose derivative is wrong. The
// pristine carrier must be accepted, with derivatives equal to cold
// builds' programs, unless it is C-Cube laid out tree-major.
//
// Run `go test -run '^$' -fuzz '^FuzzPhasePrefix$' ./internal/schedcheck`
// to explore beyond the seeds.
func FuzzPhasePrefix(f *testing.F) {
	for kind := uint8(0); kind <= numPhaseMutations; kind++ {
		f.Add(uint8(0), uint8(0), uint8(1), false, uint8(20), kind, uint16(3), uint16(1))
		f.Add(uint8(2), uint8(14), uint8(0), true, uint8(33), kind, uint16(77), uint16(5))
		f.Add(uint8(1), uint8(6), uint8(1), false, uint8(9), kind, uint16(1000), uint16(2))
	}
	// A root child's delivery lifted a chunk up on cluster:14: the carrier
	// passes Check once it stops claiming in-order delivery, and only the
	// reach rule refuses it.
	f.Add(uint8(2), uint8(12), uint8(0), true, uint8(33), uint8(skipFIFO), uint16(77), uint16(5))
	// One-phase carriers: C-Cube on the DGX-1 and on cluster:32, and a
	// forest on the DGX-1.
	f.Add(uint8(0), uint8(0), uint8(2), false, uint8(40), uint8(numPhaseMutations), uint16(0), uint16(7))
	f.Add(uint8(2), uint8(30), uint8(2), true, uint8(63), uint8(numPhaseMutations), uint16(0), uint16(50))
	f.Add(uint8(0), uint8(0), uint8(3), false, uint8(30), uint8(numPhaseMutations), uint16(0), uint16(11))
	f.Fuzz(func(t *testing.T, fabric, size, alg uint8, shared bool, bigK, kind uint8, pick, pick2 uint16) {
		var g *topology.Graph
		switch fabric % 3 {
		case 0:
			g = dgx1()
		case 1:
			g = topology.FullyConnected(2+int(size)%15, topology.NVLinkBandwidth, topology.NVLinkLatency)
		default:
			g = topology.Hierarchy(topology.DefaultHierarchyConfig(2 + int(size)%31))
		}
		K := 1 + int(bigK)%64
		// build returns the carrier's program at k chunks.
		var build func(k int) *schedcheck.Program
		if alg%4 == 3 {
			trees := packedTrees(t, g)
			K = max(K, len(trees))
			build = func(k int) *schedcheck.Program { return forestProgram(t, g, trees, k) }
		} else {
			cfg := collective.Config{Graph: g, Bytes: 64 << 20, Chunks: K, AllowSharedChannels: shared,
				Algorithm: [...]collective.Algorithm{collective.AlgTree, collective.AlgDoubleTree, collective.AlgDoubleTreeOverlap}[alg%4]}
			if _, err := collective.Build(cfg); err != nil {
				t.Skip(err) // no disjoint channels for the trees without sharing
			}
			build = func(k int) *schedcheck.Program {
				at := cfg
				at.Chunks = k
				return buildProgram(t, at)
			}
		}
		p := build(K)
		streams := max(p.Streams, 1)
		if schedcheck.PhasePrefixes(p) == nil {
			if alg%4 == 2 && !slices.IsSortedFunc(p.Ops, func(a, b schedcheck.Op) int { return cmp.Compare(a.Chunk, b.Chunk) }) {
				return // C-Cube on trees sharing a hop, laid out tree-major
			}
			t.Fatalf("the pristine %d-chunk carrier (kind %d) was refused", p.NumChunks, alg%4)
		}
		m := p.Clone()
		deps := depLists(m)
		bars := barriers(m, deps)
		mk := int(kind % (numPhaseMutations + 1)) // numPhaseMutations: none
		switch {
		case mk < numBarrierMutations && len(bars) > 0:
			barrierMutation(m, deps, bars, int(pick)%m.NumChunks, mk, pick2)
		case mk < numPhaseMutations:
			fifoMutation(m, deps, bars, mk, pick)
		}
		m.SetDeps(deps)
		ph := schedcheck.PhasePrefixes(m)
		if ph == nil || !schedcheck.Check(m).OK() {
			return
		}
		pristine := samePrograms(m, p)
		for k := streams; k <= m.NumChunks; k++ {
			d := derived(m, ph, k)
			if r := schedcheck.CheckFull(d); !r.OK() {
				t.Fatalf("mutation %d accepted, but the %d-chunk derivative fails: %s", mk, k, r.Err())
			}
			if pristine && k == streams+int(pick2)%(m.NumChunks-streams+1) && !samePrograms(d, build(k)) {
				t.Fatalf("the %d-chunk derivative differs from a cold build's program", k)
			}
		}
	})
}
