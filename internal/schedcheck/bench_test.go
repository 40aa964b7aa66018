package schedcheck_test

import (
	"testing"

	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// BenchmarkCheck times the verifier on real schedules: the six DGX-1
// built-ins at 64 MiB (cost-model chunk count), the C-Cube and overlapped
// tree schedules on the 64-GPU cluster hierarchy at 128 chunks, the tree
// schedules the served /v1/simulate requests verify cold there, at 96
// chunks, and the ring there. The overlapped trees are proved by their
// periodic window; the separated tree, the double tree and the ring, whose
// barriers or lack of a short period leave no window, in full. Schedules
// are built and lowered outside the timer; ns/transfer divides by every op
// checked, and closure-B/transfer is the reachability closure the full path
// builds.
func BenchmarkCheck(b *testing.B) {
	b.Run("dgx1-builtins-64MiB", func(b *testing.B) {
		g := dgx1()
		var progs []*schedcheck.Program
		for _, alg := range allAlgorithms {
			progs = append(progs, buildProgram(b, collective.Config{
				Graph: g, Algorithm: alg, Bytes: 64 << 20,
			}))
		}
		runCheckBench(b, progs)
	})
	cluster := []struct {
		name   string
		alg    collective.Algorithm
		chunks int
	}{
		{"cluster64-ccube-128chunks", collective.AlgDoubleTreeOverlap, 128},
		{"cluster64-tree-overlap-128chunks", collective.AlgTreeOverlap, 128},
		{"cluster64-double-tree-96chunks", collective.AlgDoubleTree, 96},
		{"cluster64-tree-overlap-96chunks", collective.AlgTreeOverlap, 96},
		{"cluster64-tree-96chunks", collective.AlgTree, 96},
		{"cluster64-ring", collective.AlgRing, 0},
	}
	for _, c := range cluster {
		b.Run(c.name, func(b *testing.B) {
			runCheckBench(b, []*schedcheck.Program{buildProgram(b, collective.Config{
				Graph:     topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
				Algorithm: c.alg, Bytes: 64 << 20, Chunks: c.chunks,
				AllowSharedChannels: true,
			})})
		})
	}
}

func runCheckBench(b *testing.B, progs []*schedcheck.Program) {
	ops, closure := 0, 0
	for _, p := range progs {
		ops += len(p.Ops)
		closure += schedcheck.CheckPlan(p).BandWords * 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if r := schedcheck.Check(p); !r.OK() {
				b.Fatal(r.Err())
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/transfer")
	b.ReportMetric(float64(closure)/float64(ops), "closure-B/transfer")
	b.ReportMetric(float64(ops), "transfers")
}
