package schedcheck_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// checkBoth runs Check and requires its Report to deep-equal the full
// path's, whichever path Check took.
func checkBoth(t testing.TB, p *schedcheck.Program) *schedcheck.Report {
	t.Helper()
	r := schedcheck.Check(p)
	if full := schedcheck.CheckFull(p); !reflect.DeepEqual(r, full) {
		t.Fatalf("Check and its full path disagree:\n%s\nvs\n%s", reportText(r), reportText(full))
	}
	return r
}

// windowChunks are the chunk counts the window tests build at.
var windowChunks = []int{8, 16, 32, 64, 128}

// windowFabrics are the fabrics the built-ins are pinned on, with whether
// they need shared channels.
var windowFabrics = []struct {
	name   string
	graph  func() *topology.Graph
	shared bool
}{
	{"dgx1", dgx1, false},
	{"fc:8", func() *topology.Graph { return fullyConnected(8) }, true},
	{"fc:16", func() *topology.Graph { return fullyConnected(16) }, true},
	{"cluster:32", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(32)) }, true},
	{"cluster:64", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(64)) }, true},
}

// TestWindowCoverage pins which schedules Check proves by their periodic
// window, and with which period start w and stream count t:
//   - the overlapped tree (w, t) = (2, 1) and C-Cube (4, 2) on every fabric
//     at 8 to 128 chunks: chunk c >= t chains behind chunk c-t, so chunks t
//     and up differ from the first t by those edges, and from 2t on each
//     is a translate;
//   - every synthesized forest on dgx1, fcasym:8 and rr:16 at the sizes
//     synth's TestHeaderMatchesColdCompile compiles (1 to 256 MiB, cold or
//     served as same-shape headers), with w = 2t for its tree count t, for
//     the same reason;
//   - the chained hierarchical schedule (2, 1), and the overlapped trees
//     repaired around a dead channel, which reroute every chunk alike.
//
// The separated tree, the double tree and their repairs hold each tree's
// barrier in its last chunk, one op more than that chunk's partner has;
// ring and halving-doubling have no short period; and the barrier
// hierarchical schedule depends on its phase barriers: they take the full
// path. Every program's Report is the same on both paths.
func TestWindowCoverage(t *testing.T) {
	periodic := map[collective.Algorithm][2]int{
		collective.AlgTreeOverlap:       {2, 1},
		collective.AlgDoubleTreeOverlap: {4, 2},
	}
	expect := func(t *testing.T, p *schedcheck.Program, want [2]int, window bool) {
		t.Helper()
		w, tt, ok := schedcheck.Window(p)
		switch {
		case ok != window:
			t.Fatalf("window = %v (w=%d, t=%d), want %v", ok, w, tt, window)
		case ok && [2]int{w, tt} != want:
			t.Fatalf("(w, t) = (%d, %d), want %v", w, tt, want)
		}
		if r := checkBoth(t, p); !r.OK() {
			t.Fatal(r.Err())
		}
	}
	for _, fab := range windowFabrics {
		g := fab.graph()
		for _, alg := range allAlgorithms {
			for _, k := range windowChunks {
				t.Run(fmt.Sprintf("%s/%s/%d", fab.name, alg, k), func(t *testing.T) {
					p := buildProgram(t, collective.Config{Graph: g, Algorithm: alg, Bytes: 64 << 20,
						Chunks: k, AllowSharedChannels: fab.shared})
					want, ok := periodic[alg]
					expect(t, p, want, ok)
				})
			}
		}
	}
	for _, fab := range []struct {
		name  string
		graph *topology.Graph
	}{
		{"dgx1", dgx1()},
		{"fcasym:8", topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1)},
		{"rr:16", topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1)},
	} {
		for _, base := range []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20} {
			for _, bytes := range []int64{base, base + 1, base + 4097} {
				t.Run(fmt.Sprintf("synth/%s/%d", fab.name, bytes), func(t *testing.T) {
					res, err := synth.Synthesize(context.Background(), fab.graph, bytes, synth.Options{})
					if err != nil {
						t.Fatal(err)
					}
					p := res.Schedule.Program()
					expect(t, p, [2]int{2 * p.Streams, p.Streams}, true)
				})
			}
		}
	}
	for _, chained := range []bool{false, true} {
		for _, boxes := range []int{2, 4} {
			t.Run(fmt.Sprintf("hierarchical/chained=%v/%dboxes", chained, boxes), func(t *testing.T) {
				mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
				if err != nil {
					t.Fatal(err)
				}
				s, err := collective.BuildHierarchical(collective.HierarchicalConfig{
					Cluster: mn, Bytes: 64 << 20, Chunks: 32, Chained: chained,
				})
				if err != nil {
					t.Fatal(err)
				}
				expect(t, s.Program(), [2]int{2, 1}, chained)
			})
		}
	}
	for _, alg := range allAlgorithms {
		t.Run("repaired/"+alg.String(), func(t *testing.T) {
			g := dgx1()
			s, err := collective.Build(collective.Config{Graph: g, Algorithm: alg, Bytes: 64 << 20, Chunks: 32})
			if err != nil {
				t.Fatal(err)
			}
			p := s.Program()
			for i := range p.Ops {
				if !p.Ops[i].Marker() {
					g.KillChannel(p.Ops[i].ChannelID())
					break
				}
			}
			repaired, _, err := collective.RepairSchedule(s, g.DownChannels(), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := periodic[alg]
			expect(t, repaired.Program(), want, ok)
		})
	}
}

// FuzzPeriodicWindow mutates periodic schedules — the overlapped tree,
// C-Cube, and a synthesized forest laid out by collective.AssembleForest —
// on dgx1 and cluster:32 at 8 to 128 chunks. A mutation changes one op
// field (channel, accumulation, final or source node), drops or retargets
// one dependency, or rewires one relay read. In the single mode it hits one
// op of a chunk at or past the pristine window's end, w+t: the certificate
// must then keep that chunk inside the window it proves by, or fail, and
// Check's Report must equal the full path's, so the mutant is rejected
// exactly when the full verifier rejects it. In the periodic mode the same
// mutation hits the op of the same rank in every chunk of one stream: the
// schedule stays periodic, the certificate must hold, and the window alone
// must catch whatever the full verifier catches.
//
// Run `go test -run '^$' -fuzz '^FuzzPeriodicWindow$' ./internal/schedcheck`
// to explore beyond the seeds.
func FuzzPeriodicWindow(f *testing.F) {
	// Every schedule, fabric, mutation kind and mode at 8, 32, 64 and 128
	// chunks (a forest at no fewer than 3t+1). Relay rewires only where
	// relay slots are read: the built-ins on the DGX-1, whose detours
	// forward through a GPU.
	for algo := uint8(0); algo < numPeriodic; algo++ {
		for fabric := uint8(0); fabric < 2; fabric++ {
			for kind := uint8(0); kind < 4; kind++ {
				if kind == 3 && (algo == 2 || fabric == 1) {
					continue
				}
				for _, periodic := range []bool{false, true} {
					f.Add(algo, fabric, uint8(0), kind, uint16(3), uint16(1), periodic)
					f.Add(algo, fabric, uint8(24), kind, uint16(1000), uint16(2), periodic)
					f.Add(algo, fabric, uint8(56), kind, uint16(250), uint16(7), periodic)
					f.Add(algo, fabric, uint8(120), kind, uint16(77), uint16(5), periodic)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, algo, fabric, chunks, kind uint8, pick, pick2 uint16, periodic bool) {
		p := periodicProgram(t, algo, fabric, 8+int(chunks)%121)
		w, streams, ok := schedcheck.Window(p)
		if !ok {
			t.Fatalf("pristine %d-chunk program of algo %d takes the full path", p.NumChunks, algo%numPeriodic)
		}
		if r := checkBoth(t, p); !r.OK() {
			t.Fatalf("pristine schedule rejected: %s", r.Err())
		}
		m := p.Clone()
		deps := depLists(m)
		x := int(pick) % len(m.Ops)
		if periodic {
			c := int(m.Ops[x].Chunk) % streams
			rank := rankOf(m, x)
			for ; c < m.NumChunks; c += streams {
				if y := opAtRank(m, c, rank); y >= 0 {
					mutate(m, deps, y, kind, pick2)
				}
			}
		} else {
			// The first op from x on, past the window, that the mutation
			// changes.
			for tried := 0; int(m.Ops[x].Chunk) < w+streams || !mutate(m, deps, x, kind, pick2); tried++ {
				if tried == len(m.Ops) {
					t.Skip()
				}
				x = (x + 1) % len(m.Ops)
			}
		}
		m.SetDeps(deps)
		mw, _, mok := schedcheck.Window(m)
		if periodic && !mok {
			t.Fatal("a mutation of every chunk of a stream broke the certificate")
		}
		if !periodic && mok && mw <= int(m.Ops[x].Chunk) {
			t.Fatalf("op %d of chunk %d mutated, but every chunk from %d on certifies", x, m.Ops[x].Chunk, mw)
		}
		if len(m.Ops) <= maxExactOps {
			check(t, m)
		} else {
			checkBoth(t, m)
		}
	})
}

// numPeriodic is how many schedules periodicProgram builds.
const numPeriodic = 3

// periodicProgram builds the periodic schedule algo%numPeriodic names on
// the fabric fabric%2 names, at k chunks: the overlapped tree, C-Cube, or a
// forest packed by synth and laid out chunk by chunk (at more than three
// chunks per tree).
func periodicProgram(t *testing.T, algo, fabric uint8, k int) *schedcheck.Program {
	t.Helper()
	g := dgx1()
	if fabric%2 == 1 {
		g = topology.Hierarchy(topology.DefaultHierarchyConfig(32))
	}
	if algo%numPeriodic == 2 {
		nodes := g.GPUs()
		forest, err := synth.PackForest(g, nodes, synth.DefaultMaxTrees, 0, true)
		if err != nil {
			t.Skip() // no spanning tree over the fabric's GPU links
		}
		trees := make([]collective.RoutedTree, len(forest.Trees))
		for i, tr := range forest.Trees {
			trees[i] = tr.RoutedTree
		}
		// The window, chunks [0, 3t), must leave a chunk out.
		k = max(k, 3*len(trees)+1)
		s, err := collective.AssembleForest(g, nodes, chunk.Split(64<<20, k), trees)
		if err != nil {
			t.Fatal(err)
		}
		return s.Program()
	}
	alg := collective.AlgTreeOverlap
	if algo%numPeriodic == 1 {
		alg = collective.AlgDoubleTreeOverlap
	}
	return buildProgram(t, collective.Config{Graph: g, Algorithm: alg, Bytes: 64 << 20, Chunks: k,
		AllowSharedChannels: fabric%2 == 1})
}

// rankOf returns op x's rank among its chunk's ops, in id order.
func rankOf(p *schedcheck.Program, x int) int {
	rank := 0
	for i := 0; i < x; i++ {
		if p.Ops[i].Chunk == p.Ops[x].Chunk {
			rank++
		}
	}
	return rank
}

// opAtRank returns the op of chunk c with the given rank, or -1.
func opAtRank(p *schedcheck.Program, c, rank int) int {
	for i := range p.Ops {
		if int(p.Ops[i].Chunk) == c {
			if rank == 0 {
				return i
			}
			rank--
		}
	}
	return -1
}

// mutate applies mutation kind to op x of p, whose dependencies are deps,
// and reports whether the op changed. Every new value names the same thing
// in every chunk (a channel, a node, a rank within x's chunk), so the same
// mutation of every chunk of a stream keeps the schedule periodic.
func mutate(p *schedcheck.Program, deps [][]int, x int, kind uint8, pick uint16) bool {
	op := &p.Ops[x]
	c := int(op.Chunk)
	switch kind % 4 {
	case 0: // one field
		switch pick % 4 {
		case 0:
			if op.Marker() {
				return false
			}
			next := int32((int(op.Channel) + 1 + int(pick)/4) % p.Graph.NumChannels())
			if next == op.Channel {
				return false
			}
			op.Channel = next
		case 1:
			if op.Marker() || op.Dst.IsRelay() {
				return false
			}
			op.Accumulate = !op.Accumulate
		case 2:
			next := p.Nodes[(int(pick)/4)%len(p.Nodes)]
			if op.Final == int32(next) {
				op.Final = -1
			} else {
				op.Final = int32(next)
			}
		default:
			if !op.Src.IsNode() {
				return false
			}
			next := p.Nodes[(int(pick)/4)%len(p.Nodes)]
			if op.Src.Node == int32(next) {
				return false
			}
			op.Src = schedcheck.NodeBuf(next)
		}
	case 1: // drop one dependency
		if len(deps[x]) == 0 {
			return false
		}
		j := int(pick) % len(deps[x])
		deps[x] = append(deps[x][:j:j], deps[x][j+1:]...)
	case 2: // retarget one dependency to another op of x's chunk
		y := opAtRank(p, c, int(pick/2)%max(1, rankOf(p, x)+1))
		if y < 0 || y == x {
			return false
		}
		if len(deps[x]) == 0 || pick%2 == 0 {
			deps[x] = append(deps[x], y)
		} else if j := int(pick/2) % len(deps[x]); deps[x][j] != y {
			deps[x][j] = y
		} else {
			return false
		}
	default: // rewire a relay read to another op of x's chunk
		if !op.Src.IsRelay() {
			return false
		}
		y := opAtRank(p, c, int(pick)%max(1, rankOf(p, x)))
		if y < 0 || int32(y) == op.Src.Relay {
			return false
		}
		op.Src = schedcheck.RelayBuf(y)
	}
	return true
}

// TestChunkPrefixes pins the one-phase certificate both ways. On the
// chunk-major overlapped built-ins every chunk prefix it offers — Derive's
// sub-slices Ops[:n_k] over the first k chunk sizes, the program's own
// arrays — passes Check, as the soundness note claims. And it refuses a
// program whose chunks fall in id order, or that breaks closure: a
// dependency on a later chunk or at a higher id, a relay slot read across
// chunks (the DGX-1 trees' detour hops read relay slots).
func TestChunkPrefixes(t *testing.T) {
	relayCovered := false
	for _, cfg := range []collective.Config{
		{Graph: topology.DGX1(topology.DefaultDGX1Config()), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 12},
		{Graph: topology.DGX1(topology.DefaultDGX1Config()), Algorithm: collective.AlgTreeOverlap, Bytes: 1 << 20, Chunks: 9},
		{Graph: topology.FullyConnected(8, topology.NVLinkBandwidth, topology.NVLinkLatency), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 10},
	} {
		name := fmt.Sprintf("%v/%d", cfg.Algorithm, cfg.Chunks)
		p := buildProgram(t, cfg)
		ph := schedcheck.PhasePrefixes(p)
		if ph == nil {
			t.Fatalf("%s: a chunk-major built-in was refused", name)
		}
		for k := 1; k <= p.NumChunks; k++ {
			sub := derived(p, ph, k)
			if &sub.Ops[0] != &p.Ops[0] || cap(sub.Ops) != len(sub.Ops) || cap(sub.DepOff) != len(sub.DepOff) {
				t.Fatalf("%s: the %d-chunk prefix is not a capped slice of the program's arrays", name, k)
			}
			if r := checkBoth(t, sub); !r.OK() {
				t.Fatalf("%s: the %d-chunk prefix fails Check: %v", name, k, r.Err())
			}
		}

		// Each mutation breaks one rule on a clone; chunk 1's ops are
		// [lo, hi), and pick returns the first of them matching pred, or -1.
		lo := slices.IndexFunc(p.Ops, func(op schedcheck.Op) bool { return op.Chunk == 1 })
		hi := slices.IndexFunc(p.Ops, func(op schedcheck.Op) bool { return op.Chunk == 2 })
		pick := func(pred func(op *schedcheck.Op) bool) int {
			for i := lo; i < hi; i++ {
				if pred(&p.Ops[i]) {
					return i
				}
			}
			return -1
		}
		addDep := func(i, d int) func(q *schedcheck.Program) {
			return func(q *schedcheck.Program) {
				deps := depLists(q)
				deps[i] = append(deps[i], d)
				q.SetDeps(deps)
			}
		}
		mutations := map[string]func(q *schedcheck.Program){
			"chunks fall":               func(q *schedcheck.Program) { q.Ops[len(q.Ops)-1].Chunk-- },
			"later-chunk dependency":    addDep(pick(func(op *schedcheck.Op) bool { return !op.Marker() }), hi),
			"dependency at a higher id": addDep(lo, hi-1),
		}
		if i := pick(func(op *schedcheck.Op) bool { return op.Src.IsRelay() }); i >= 0 {
			relayCovered = true
			mutations["relay slot across chunks"] = func(q *schedcheck.Program) { q.Ops[i].Src.Relay = 0 }
		}
		for rule, mutate := range mutations {
			q := p.Clone()
			mutate(q)
			if schedcheck.PhasePrefixes(q) != nil {
				t.Errorf("%s: %s: certified", name, rule)
			}
		}
	}
	if !relayCovered {
		t.Error("no program read a relay slot, so the relay rule went untested")
	}
}
