package topology

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ccube/internal/des"
)

func TestFingerprintStableAcrossIdenticalBuilds(t *testing.T) {
	a := DGX1(DefaultDGX1Config())
	b := DGX1(DefaultDGX1Config())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two identical DGX-1 builds have different fingerprints")
	}
}

func TestFingerprintDistinguishesConfigurations(t *testing.T) {
	high := DGX1(DefaultDGX1Config())
	lowCfg := DefaultDGX1Config()
	lowCfg.LowBandwidth = true
	low := DGX1(lowCfg)
	if high.Fingerprint() == low.Fingerprint() {
		t.Fatal("high- and low-bandwidth DGX-1 share a fingerprint")
	}
	if high.Fingerprint() == FullyConnected(4, 25e9, 0).Fingerprint() {
		t.Fatal("DGX-1 and fc4 share a fingerprint")
	}
}

func TestFingerprintTracksHealthState(t *testing.T) {
	g := DGX1(DefaultDGX1Config())
	healthy := g.Fingerprint()

	g.KillChannel(0)
	killed := g.Fingerprint()
	if killed == healthy {
		t.Fatal("KillChannel did not change the fingerprint")
	}

	g.RestoreChannel(0)
	if g.Fingerprint() != healthy {
		t.Fatal("RestoreChannel did not restore the fingerprint")
	}

	g.DegradeChannel(0, 4)
	degraded := g.Fingerprint()
	if degraded == healthy || degraded == killed {
		t.Fatal("DegradeChannel fingerprint collides with healthy or killed state")
	}
	g.DegradeChannel(0, 2)
	if g.Fingerprint() == degraded {
		t.Fatal("changing the degrade factor did not change the fingerprint")
	}
	g.RestoreChannel(0)
	if g.Fingerprint() != healthy {
		t.Fatal("RestoreChannel after degrade did not restore the fingerprint")
	}
}

// TestFingerprintGolden pins the fingerprint's exact serialization: any
// change to the canonical field order or hashed fields moves this value, so
// such a change is deliberate. Update the pinned values only then.
func TestFingerprintGolden(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("g0", GPU)
	b := g.AddNode("g1", GPU)
	g.AddBidi(a, b, 25e9, 1_300, "nvlink")

	const wantHealthy = 0x524c57aff5f0285e
	if got := g.Fingerprint(); got != wantHealthy {
		t.Fatalf("fingerprint of pinned 2-GPU graph = %016x, want %016x (serialization changed?)", got, uint64(wantHealthy))
	}

	g.KillChannel(0)
	const wantKilled = 0x317d473cf3e5ca2f
	if got := g.Fingerprint(); got != wantKilled {
		t.Fatalf("fingerprint with channel 0 down = %016x, want %016x", got, uint64(wantKilled))
	}
	g.RestoreChannel(0)
	if got := g.Fingerprint(); got != wantHealthy {
		t.Fatalf("fingerprint after restore = %016x, want %016x", got, uint64(wantHealthy))
	}
}

func TestFingerprintAllocationFree(t *testing.T) {
	g := DGX1(DefaultDGX1Config())
	first := testing.AllocsPerRun(20, func() {
		g.fp.Store(0)
		g.Fingerprint()
	})
	memoized := testing.AllocsPerRun(20, func() { g.Fingerprint() })
	if first > 0 || memoized > 0 {
		t.Fatalf("Fingerprint allocates %.1f/op on a first call and %.1f/op memoized, want 0", first, memoized)
	}
}

// TestFingerprintMemoTracksEveryMutator applies random sequences of the
// seven mutators of hashed state — AddNode, AddChannel, KillChannel,
// DegradeChannel, RestoreChannel, SetHealth and RestoreHealth — and checks
// after every step that the memoized Fingerprint equals a fresh hash. Each
// step reads the fingerprint first, so the memo is always filled when the
// next mutator runs: one that forgets to clear it returns the old value.
func TestFingerprintMemoTracksEveryMutator(t *testing.T) {
	graphs := map[string]func() *Graph{
		"dgx1":       func() *Graph { return DGX1(DefaultDGX1Config()) },
		"cluster:16": func() *Graph { return Hierarchy(DefaultHierarchyConfig(16)) },
	}
	factors := []float64{0, 1, 1.5, 2, 4, 8}
	for name, build := range graphs {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := build()
			snap := g.SnapshotHealth()
			seen := map[string]int{}
			for step := 0; step < 300; step++ {
				before := g.Fingerprint()
				ch := ChannelID(rng.Intn(g.NumChannels()))
				var op string
				switch rng.Intn(7) {
				case 0:
					op = "AddNode"
					g.AddNode(fmt.Sprintf("extra%d", step), NodeKind(rng.Intn(2)))
				case 1:
					op = "AddChannel"
					a, b := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
					if a == b {
						b = (a + 1) % NodeID(g.NumNodes())
					}
					g.AddChannel(a, b, float64(1+rng.Intn(50))*1e9, des.Time(rng.Intn(5000)), "probe")
				case 2:
					op = "KillChannel"
					g.KillChannel(ch)
				case 3:
					op = "DegradeChannel"
					g.DegradeChannel(ch, factors[2+rng.Intn(len(factors)-2)])
				case 4:
					op = "RestoreChannel"
					g.RestoreChannel(ch)
				case 5:
					op = "SetHealth"
					g.SetHealth(ch, ChannelHealth{Down: rng.Intn(2) == 0, Degrade: factors[rng.Intn(len(factors))]})
				case 6:
					op = "RestoreHealth"
					if len(snap) == g.NumChannels() {
						g.RestoreHealth(snap)
					}
					snap = g.SnapshotHealth()
				}
				got, want := g.Fingerprint(), g.fingerprint()
				if got != want {
					t.Fatalf("%s seed %d step %d: after %s Fingerprint() = %016x, a fresh hash is %016x",
						name, seed, step, op, got, want)
				}
				if want != before {
					seen[op]++
				}
			}
			if seed == 1 && len(seen) != 7 {
				t.Fatalf("%s: only %v changed the hash; every mutator must be exercised", name, seen)
			}
		}
	}
}

// TestFingerprintConcurrentFirstRead has many goroutines race to fill the
// memo of one fresh graph, as request goroutines do on a shared topology.
// Run under -race; every reader must see the full hash.
func TestFingerprintConcurrentFirstRead(t *testing.T) {
	want := Hierarchy(DefaultHierarchyConfig(16)).fingerprint()
	for round := 0; round < 20; round++ {
		g := Hierarchy(DefaultHierarchyConfig(16))
		const readers = 8
		got := make([]uint64, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(readers)
		for i := range got {
			go func() {
				defer done.Done()
				start.Wait()
				got[i] = g.Fingerprint()
			}()
		}
		start.Done()
		done.Wait()
		for i, fp := range got {
			if fp != want {
				t.Fatalf("round %d reader %d: Fingerprint() = %016x, want %016x", round, i, fp, want)
			}
		}
	}
}

// fpSink keeps BenchmarkFingerprint's results alive.
var fpSink uint64

// BenchmarkFingerprint times the cluster:64 fingerprint (8,064 channels)
// hashed from scratch and memoized. Both must be allocation-free.
func BenchmarkFingerprint(b *testing.B) {
	g := Hierarchy(DefaultHierarchyConfig(64))
	b.Run("cluster64-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.fp.Store(0)
			fpSink = g.Fingerprint()
		}
	})
	b.Run("cluster64-memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fpSink = g.Fingerprint()
		}
	})
}
