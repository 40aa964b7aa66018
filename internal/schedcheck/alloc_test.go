package schedcheck_test

import (
	"testing"

	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// TestCheckAllocFree pins a warm Check to its Report: on the cluster:64
// C-Cube schedule (128 chunks, 16,256 ops, proved by its periodic window),
// the separated tree (96 chunks) and the ring (both the full path) every
// scratch slice comes from the pooled checker, so the Report and its
// Checked list are all a Check allocates, whatever the op count.
func TestCheckAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	for _, c := range []struct {
		alg    collective.Algorithm
		chunks int
	}{{collective.AlgDoubleTreeOverlap, 128}, {collective.AlgTree, 96}, {collective.AlgRing, 0}} {
		p := buildProgram(t, collective.Config{
			Graph:     topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
			Algorithm: c.alg, Bytes: 64 << 20, Chunks: c.chunks,
			AllowSharedChannels: true,
		})
		const reportAllocs = 2 // the Report and its Checked list
		if r := schedcheck.Check(p); !r.OK() {
			t.Fatal(r.Err()) // also warms the pool to this program's size
		}
		if allocs := testing.AllocsPerRun(10, func() { schedcheck.Check(p) }); allocs != reportAllocs {
			t.Fatalf("%s: warm Check of %d ops allocates %.1f/op, want %d (its Report)", c.alg, len(p.Ops), allocs, reportAllocs)
		}
	}
}
