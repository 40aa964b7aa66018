package collective

import (
	"context"
	"math/rand"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

func TestHalvingDoublingCorrectnessDGX1(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, err := Build(Config{Graph: dgx1(), Algorithm: AlgHalvingDoubling, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	checkAllReduceData(t, s, rng, 4096)
}

func TestHalvingDoublingCorrectnessGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, p := range []int{2, 4, 8, 16, 32} {
		g := topology.FullyConnected(p, 25e9, 3*des.Microsecond)
		s, err := Build(Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 18})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		checkAllReduceData(t, s, rng, 2048)
	}
}

func TestHalvingDoublingRejectsNonPowerOfTwo(t *testing.T) {
	g := topology.FullyConnected(6, 25e9, 0)
	if _, err := Build(Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 20}); err == nil {
		t.Fatal("P=6 accepted")
	}
}

func TestHalvingDoublingRequiresXORNeighbors(t *testing.T) {
	// A plain ring topology lacks the distance-2 and distance-4 channels.
	g := topology.Ring(8, 25e9, 3*des.Microsecond)
	if _, err := Build(Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 1 << 20}); err == nil {
		t.Fatal("halving-doubling built on a ring topology")
	}
}

func TestHalvingDoublingMapsOntoMeshCubeDirectly(t *testing.T) {
	// Every XOR-distance pair of the hybrid mesh-cube has a direct NVLink:
	// distance 1 (quad ring), 2 (quad diagonal), 4 (cube cross-link).
	g := dgx1()
	for r := 0; r < 8; r++ {
		for _, dist := range []int{1, 2, 4} {
			if !g.HasDirect(topology.NodeID(r), topology.NodeID(r^dist)) {
				t.Errorf("no direct channel %d->%d", r, r^dist)
			}
		}
	}
}

func TestHalvingDoublingMatchesClosedForm(t *testing.T) {
	// DES time vs 2·log2(P)·α + 2·βN·(P-1)/P on a contention-free topology.
	bytes := int64(64 << 20)
	g := topology.FullyConnected(8, 25e9, 3*des.Microsecond)
	res, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	alpha := (3 * des.Microsecond).Seconds()
	beta := 1 / 25e9
	want := 2*3*alpha + 2*beta*float64(bytes)*7/8
	got := res.Total.Seconds()
	if rel := abs(got-want) / want; rel > 0.05 {
		t.Errorf("halving-doubling %v vs model %v (rel err %.3f)", got, want, rel)
	}
}

func TestHalvingDoublingBeatsSingleRingOnLatency(t *testing.T) {
	// Same bandwidth term as a single ring, log-vs-linear latency term:
	// at small messages halving-doubling must win clearly.
	g := topology.FullyConnected(16, 25e9, 3*des.Microsecond)
	hd, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgRing, Bytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if float64(ring.Total) < 1.5*float64(hd.Total) {
		t.Errorf("small-message ring %v not clearly slower than halving-doubling %v",
			ring.Total, hd.Total)
	}
	// At large sizes the bandwidth terms dominate and the two converge.
	hdBig, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ringBig, err := RunCtx(context.Background(), Config{Graph: g, Algorithm: AlgRing, Bytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(ringBig.Total) / float64(hdBig.Total)
	if ratio < 0.95 || ratio > 1.1 {
		t.Errorf("large-message ring/hd ratio %.3f, want ~1", ratio)
	}
}

func TestHalvingDoublingNotInOrder(t *testing.T) {
	res, err := RunCtx(context.Background(), Config{Graph: dgx1(), Algorithm: AlgHalvingDoubling, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.InOrder {
		t.Fatal("halving-doubling marked in-order")
	}
}

func TestHalvingDoublingPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 15; i++ {
		p := []int{2, 4, 8, 16}[rng.Intn(4)]
		g := topology.FullyConnected(p, 25e9, des.Microsecond)
		elems := p + rng.Intn(3000)
		s, err := Build(Config{Graph: g, Algorithm: AlgHalvingDoubling, Bytes: int64(elems) * 4})
		if err != nil {
			t.Fatal(err)
		}
		checkAllReduceData(t, s, rng, elems)
	}
}
