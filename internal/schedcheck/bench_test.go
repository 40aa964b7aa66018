package schedcheck_test

import (
	"testing"

	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// BenchmarkCheck times the full verifier on real schedules: the six DGX-1
// built-ins at 64 MiB (cost-model chunk count) and the C-Cube schedule on
// the 64-GPU cluster hierarchy at 128 chunks, the shapes the served
// /v1/plan and /v1/simulate requests verify cold. Schedules are built and
// lowered outside the timer; ns/transfer divides by every op checked.
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
	b.Run("cluster64-ccube-128chunks", func(b *testing.B) {
		runCheckBench(b, []*schedcheck.Program{buildProgram(b, collective.Config{
			Graph:     topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
			Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
			AllowSharedChannels: true,
		})})
	})
}

func runCheckBench(b *testing.B, progs []*schedcheck.Program) {
	ops := 0
	for _, p := range progs {
		ops += len(p.Ops)
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
	b.ReportMetric(float64(ops), "transfers")
}
