package collective

import (
	"context"
	"math/rand"
	"testing"

	"ccube/internal/costmodel"
	"ccube/internal/des"
	"ccube/internal/topology"
)

func fullMesh(p int) *topology.Graph {
	return topology.FullyConnected(p, 25e9, 3*des.Microsecond)
}

func TestBroadcastDeliversRootData(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := fullMesh(8)
	s, err := BuildPrimitive(PrimitiveConfig{Graph: g, Primitive: PrimBroadcast, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	inputs, _ := sumInputs(rng, 8, 1024)
	out, err := s.ExecuteData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	tree := InorderTree(8)
	root := tree.Root
	for n := range out {
		for j := range out[n] {
			if out[n][j] != inputs[root][j] {
				t.Fatalf("node %d elem %d = %v, want root's %v", n, j, out[n][j], inputs[root][j])
			}
		}
	}
}

func TestReduceAccumulatesAtRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := fullMesh(8)
	s, err := BuildPrimitive(PrimitiveConfig{Graph: g, Primitive: PrimReduce, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	inputs, want := sumInputs(rng, 8, 1024)
	out, err := s.ExecuteData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	root := InorderTree(8).Root
	for j := range want {
		if out[root][j] != want[j] {
			t.Fatalf("root elem %d = %v, want %v", j, out[root][j], want[j])
		}
	}
}

func TestReduceScatterOwnersHoldSums(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p := 8
	g := fullMesh(p)
	s, err := BuildPrimitive(PrimitiveConfig{Graph: g, Primitive: PrimReduceScatter, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	elems := 4096
	inputs, want := sumInputs(rng, p, elems)
	out, err := s.ExecuteData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Position pos (identity order) owns chunk (pos+1)%p.
	chunkLen := elems / p
	for pos := 0; pos < p; pos++ {
		c := (pos + 1) % p
		for j := c * chunkLen; j < (c+1)*chunkLen; j++ {
			if out[pos][j] != want[j] {
				t.Fatalf("owner %d chunk %d elem %d = %v, want %v", pos, c, j, out[pos][j], want[j])
			}
		}
	}
}

func TestAllGatherDistributesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	p := 8
	g := fullMesh(p)
	s, err := BuildPrimitive(PrimitiveConfig{Graph: g, Primitive: PrimAllGather, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	elems := 4096
	inputs, _ := sumInputs(rng, p, elems)
	out, err := s.ExecuteData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	chunkLen := elems / p
	for n := 0; n < p; n++ {
		for c := 0; c < p; c++ {
			owner := c // position c holds chunk c initially (identity order)
			for j := c * chunkLen; j < (c+1)*chunkLen; j++ {
				if out[n][j] != inputs[owner][j] {
					t.Fatalf("node %d chunk %d elem %d = %v, want owner %d's %v",
						n, c, j, out[n][j], owner, inputs[owner][j])
				}
			}
		}
	}
}

func TestBroadcastMatchesEq3(t *testing.T) {
	// A single pipelined tree phase is Eq. (3): (log P + K)(alpha + beta*N/K).
	bytes := int64(64 << 20)
	g := fullMesh(8)
	res, err := RunPrimitive(context.Background(), PrimitiveConfig{Graph: g, Primitive: PrimBroadcast, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	pr := costmodel.Params{Alpha: 3e-6, Beta: 1 / 25e9, P: 8, N: float64(bytes)}
	want := costmodel.TreePhase(pr, res.Partition.NumChunks())
	got := res.Total.Seconds()
	if rel := abs(got-want) / want; rel > 0.15 {
		t.Errorf("broadcast %v vs Eq3 %v (rel err %.3f)", got, want, rel)
	}
}

func TestAllReduceEqualsReducePlusBroadcastShape(t *testing.T) {
	// The non-overlapped tree AllReduce must cost about the sum of its
	// phases; the overlapped one clearly less (the C-Cube observation).
	bytes := int64(64 << 20)
	g := fullMesh(8)
	red, err := RunPrimitive(context.Background(), PrimitiveConfig{Graph: g, Primitive: PrimReduce, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := RunPrimitive(context.Background(), PrimitiveConfig{Graph: g, Primitive: PrimBroadcast, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgTree, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	over, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgTreeOverlap, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	sum := red.Total + bc.Total
	if rel := abs(float64(full.Total-sum)) / float64(sum); rel > 0.1 {
		t.Errorf("tree AllReduce %v vs reduce+broadcast %v (rel err %.3f)", full.Total, sum, rel)
	}
	if float64(over.Total) > 0.8*float64(sum) {
		t.Errorf("overlapped %v not clearly below phase sum %v", over.Total, sum)
	}
}

func TestPrimitiveReroot(t *testing.T) {
	tree := InorderTree(8)
	rerooted, err := tree.Reroot(2)
	if err != nil {
		t.Fatal(err)
	}
	if rerooted.Root != 2 {
		t.Fatalf("root = %d, want 2", rerooted.Root)
	}
	if len(rerooted.Parent) != 8 {
		t.Fatalf("size changed")
	}
	// Still a valid tree (NewTree inside Reroot validated connectivity).
	if rerooted.Depth() < 1 {
		t.Fatal("degenerate rerooted tree")
	}
}

func TestBroadcastFromCustomRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	g := fullMesh(8)
	s, err := BuildPrimitive(PrimitiveConfig{
		Graph: g, Primitive: PrimBroadcast, Bytes: 1 << 18, Chunks: 4, Root: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs, _ := sumInputs(rng, 8, 512)
	out, err := s.ExecuteData(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for n := range out {
		for j := range out[n] {
			if out[n][j] != inputs[5][j] {
				t.Fatalf("node %d got data not from root 5", n)
			}
		}
	}
}

func TestPrimitiveValidation(t *testing.T) {
	g := fullMesh(4)
	bad := []PrimitiveConfig{
		{Graph: nil, Primitive: PrimBroadcast, Bytes: 1},
		{Graph: g, Primitive: PrimBroadcast, Bytes: 0},
		{Graph: g, Primitive: Primitive(99), Bytes: 1},
		{Graph: g, Primitive: PrimReduce, Bytes: 1 << 10, Root: 9},
	}
	for i, cfg := range bad {
		if _, err := BuildPrimitive(cfg); err == nil {
			t.Errorf("bad primitive config %d accepted", i)
		}
	}
}

func TestPrimitivesOnDGX1(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, prim := range []Primitive{PrimBroadcast, PrimReduce, PrimReduceScatter, PrimAllGather} {
		s, err := BuildPrimitive(PrimitiveConfig{Graph: dgx1(), Primitive: prim, Bytes: 1 << 20, Chunks: 8})
		if err != nil {
			t.Fatalf("%v: %v", prim, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: %v", prim, err)
		}
		res, err := s.ExecuteCtx(context.Background())
		if err != nil {
			t.Fatalf("%v execute: %v", prim, err)
		}
		if res.Total <= 0 {
			t.Fatalf("%v: total %v", prim, res.Total)
		}
		// Data path sanity.
		inputs, _ := sumInputs(rng, 8, 512)
		if _, err := s.ExecuteData(inputs); err != nil {
			t.Fatalf("%v data: %v", prim, err)
		}
	}
}

func TestPrimitiveStrings(t *testing.T) {
	want := map[Primitive]string{
		PrimBroadcast: "broadcast", PrimReduce: "reduce",
		PrimReduceScatter: "reduce-scatter", PrimAllGather: "all-gather",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}
