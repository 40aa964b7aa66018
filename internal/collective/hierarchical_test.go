package collective

import (
	"context"
	"math/rand"
	"testing"

	"ccube/internal/topology"
)

func cluster(t *testing.T, boxes int) *topology.MultiNode {
	t.Helper()
	mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
	if err != nil {
		t.Fatal(err)
	}
	return mn
}

func TestHierarchicalCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, boxes := range []int{2, 3, 4} {
		for _, chained := range []bool{false, true} {
			mn := cluster(t, boxes)
			s, err := BuildHierarchical(HierarchicalConfig{
				Cluster: mn, Bytes: 1 << 20, Chunks: 8, Chained: chained,
			})
			if err != nil {
				t.Fatalf("boxes=%d chained=%v: %v", boxes, chained, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			checkAllReduceData(t, s, rng, 2048)
		}
	}
}

func TestHierarchicalChainingBeatsBarriers(t *testing.T) {
	mn := cluster(t, 4)
	bytes := int64(64 << 20)
	base, err := RunHierarchical(context.Background(), HierarchicalConfig{Cluster: mn, Bytes: bytes, Chained: false})
	if err != nil {
		t.Fatal(err)
	}
	mn2 := cluster(t, 4)
	chained, err := RunHierarchical(context.Background(), HierarchicalConfig{Cluster: mn2, Bytes: bytes, Chained: true})
	if err != nil {
		t.Fatal(err)
	}
	if chained.Total >= base.Total {
		t.Errorf("chained %v >= barriered %v", chained.Total, base.Total)
	}
	speedup := float64(base.Total) / float64(chained.Total)
	// Three chained phases pipeline; the asymptotic bound is 3x (phase
	// barriers serialize three pipelines of roughly equal length). Expect
	// a clear win, below the bound.
	if speedup < 1.3 || speedup > 3.1 {
		t.Errorf("chained speedup %.2f outside (1.3, 3.1)", speedup)
	}
	if chained.Turnaround >= base.Turnaround {
		t.Errorf("chained turnaround %v >= barriered %v", chained.Turnaround, base.Turnaround)
	}
}

func TestHierarchicalTurnaroundAdvantageGrows(t *testing.T) {
	// With many chunks the first chunk of the chained hierarchy completes
	// after a single climb+descent through all levels, while the barriered
	// version waits for every phase to drain.
	mn := cluster(t, 4)
	base, err := RunHierarchical(context.Background(), HierarchicalConfig{Cluster: mn, Bytes: 64 << 20, Chunks: 64, Chained: false})
	if err != nil {
		t.Fatal(err)
	}
	mn2 := cluster(t, 4)
	chained, err := RunHierarchical(context.Background(), HierarchicalConfig{Cluster: mn2, Bytes: 64 << 20, Chunks: 64, Chained: true})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(base.Turnaround) / float64(chained.Turnaround)
	if speedup < 5 {
		t.Errorf("hierarchical turnaround speedup %.1f, want large", speedup)
	}
}

func TestHierarchicalInOrderPerBox(t *testing.T) {
	mn := cluster(t, 2)
	res, err := RunHierarchical(context.Background(), HierarchicalConfig{Cluster: mn, Bytes: 4 << 20, Chunks: 16, Chained: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InOrder {
		t.Fatal("hierarchical result not in-order")
	}
	for n := range res.ChunkReady {
		for c := 1; c < len(res.ChunkReady[n]); c++ {
			if res.ChunkReady[n][c] < res.ChunkReady[n][c-1] {
				t.Fatalf("node %d: chunk %d ready before chunk %d", n, c, c-1)
			}
		}
	}
}

func TestHierarchicalValidation(t *testing.T) {
	if _, err := BuildHierarchical(HierarchicalConfig{Cluster: nil, Bytes: 1}); err == nil {
		t.Error("nil cluster accepted")
	}
	mn := cluster(t, 2)
	if _, err := BuildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 0}); err == nil {
		t.Error("zero bytes accepted")
	}
	if _, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(1)); err == nil {
		t.Error("single-box cluster accepted")
	}
}

func TestMultiNodeTopology(t *testing.T) {
	mn := cluster(t, 3)
	if mn.Graph.NumNodes() != 24 {
		t.Fatalf("nodes = %d, want 24", mn.Graph.NumNodes())
	}
	if len(mn.Leaders) != 3 {
		t.Fatalf("leaders = %d", len(mn.Leaders))
	}
	// 3 boxes x 48 NVLink channels + 3 leader pairs x 2 fabric channels x 2 dirs.
	want := 3*48 + 3*2*2
	if mn.Graph.NumChannels() != want {
		t.Fatalf("channels = %d, want %d", mn.Graph.NumChannels(), want)
	}
	if err := mn.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Leaders are GPU4 of each box.
	for b, l := range mn.Leaders {
		if mn.Graph.Node(l).Name != "n"+string(rune('0'+b))+".GPU4" {
			t.Fatalf("leader %d = %s", b, mn.Graph.Node(l).Name)
		}
	}
}
