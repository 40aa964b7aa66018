package synth

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/collective/collectivetest"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// countAssemblies replaces the assembleForest seam, the one path from
// synthesis into the static verifier, with one that records the (trees,
// chunks) shape of every variant it lays out and verifies while *on is set.
func countAssemblies(t *testing.T, on *bool) map[variant]int {
	t.Helper()
	orig := assembleForest
	t.Cleanup(func() { assembleForest = orig })
	assembled := map[variant]int{}
	assembleForest = func(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, trees []collective.RoutedTree) (*collective.Schedule, error) {
		if *on {
			assembled[variant{trees: len(trees), chunks: part.NumChunks()}]++
		}
		return orig(g, nodes, part, trees)
	}
	return assembled
}

// TestHeaderMatchesColdCompile: a compile whose winner is served as a
// same-shape header over a resident op graph returns exactly what a
// NoCache cold compile returns — the schedule deep-equal (ops, dependency
// CSR, partition, stamp, Streams, InOrder), the whole Report (Shares
// included) and the DES run — and never lays out or verifies the winner's
// shape: the header path runs no schedcheck.Check. Sizes come in
// near-equal pairs from 1 to 256 MiB, so later compiles find their
// winner's shape resident.
func TestHeaderMatchesColdCompile(t *testing.T) {
	collective.DefaultCache.Clear()
	t.Cleanup(collective.DefaultCache.Clear)
	counting := false
	assembled := countAssemblies(t, &counting)
	fabrics := differentialFabrics()
	for _, name := range []string{"dgx1", "fcasym:8", "rr:16"} {
		t.Run(name, func(t *testing.T) {
			g, _ := fabrics[name]()
			headers := 0
			for _, base := range []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20} {
				for _, bytes := range []int64{base, base + 1, base + 4097} {
					clear(assembled)
					before := collective.DefaultCache.IncrementalBuilds()
					counting = true
					got, err := Synthesize(context.Background(), g, bytes, Options{})
					counting = false
					if err != nil {
						t.Fatal(err)
					}
					cold, err := Synthesize(context.Background(), g, bytes, Options{NoCache: true})
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%d bytes", bytes)
					if !collectivetest.DeepEqual(got.Schedule, cold.Schedule) {
						t.Fatalf("%s: schedule differs from a NoCache compile's", at)
					}
					if !reflect.DeepEqual(got.Report, cold.Report) || !reflect.DeepEqual(got.Report.Shares(), cold.Report.Shares()) {
						t.Fatalf("%s: report %s, NoCache %s", at, got.Report, cold.Report)
					}
					if !reflect.DeepEqual(got.Run, cold.Run) {
						t.Fatalf("%s: run differs from a NoCache compile's", at)
					}
					if collective.DefaultCache.IncrementalBuilds() == before {
						continue
					}
					headers++
					if n := assembled[variant{trees: got.Report.Trees, chunks: got.Report.Chunks}]; n != 0 {
						t.Fatalf("%s: the header winner's shape was assembled and verified %d times", at, n)
					}
				}
			}
			if headers == 0 {
				t.Fatal("no compile was served by a same-shape header")
			}
		})
	}
}

// TestHeaderSharesOpGraph: a winner served as a header shares its resident
// op graph — the cache retains that graph's bytes once for both sizes and
// counts the second miss as incremental.
func TestHeaderSharesOpGraph(t *testing.T) {
	c := collective.DefaultCache
	c.Clear()
	t.Cleanup(c.Clear)
	g := dgx1()
	first, err := Synthesize(context.Background(), g, 16<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A second run lowers the op graph once (collective's lower.go), which
	// the cache counts from then on, before the baseline is taken.
	if _, err := first.Schedule.ExecuteCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	retained := c.RetainedBytes()
	second, err := Synthesize(context.Background(), g, 16<<20+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.Trees != first.Report.Trees || second.Report.Chunks != first.Report.Chunks {
		t.Fatalf("winners %s and %s differ in shape: the premise no longer holds", first.Report, second.Report)
	}
	if c.IncrementalBuilds() != 1 || c.Len() != 2 {
		t.Fatalf("%d incremental builds over %d entries, want the second of 2", c.IncrementalBuilds(), c.Len())
	}
	if got := c.RetainedBytes(); retained == 0 || got != retained {
		t.Fatalf("two sizes of one shape retain %d bytes, one retained %d", got, retained)
	}
}

// TestConcurrentHeaders: goroutines compiling one fabric at near-equal
// sizes share the shape index, and each gets exactly the schedule a NoCache
// compile returns.
func TestConcurrentHeaders(t *testing.T) {
	collective.DefaultCache.Clear()
	t.Cleanup(collective.DefaultCache.Clear)
	g := dgx1()
	sizes := []int64{16 << 20, 16<<20 + 1, 16<<20 + 2, 16<<20 + 3, 64 << 20, 64<<20 + 1}
	want := make([]*collective.Schedule, len(sizes))
	for i, bytes := range sizes {
		res, err := Synthesize(context.Background(), g, bytes, Options{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Schedule
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range sizes {
				i := (j + w) % len(sizes)
				res, err := Synthesize(context.Background(), g, sizes[i], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !collectivetest.DeepEqual(res.Schedule, want[i]) {
					t.Errorf("%d bytes: schedule differs from a NoCache compile's", sizes[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFailedVariantNeverIndexed: a variant whose assembly fails
// verification leaves nothing behind in the shape index — a later compile
// cannot be handed a header over it — while the winner's op graph is
// indexed under its shape.
func TestFailedVariantNeverIndexed(t *testing.T) {
	collective.DefaultCache.Clear()
	t.Cleanup(collective.DefaultCache.Clear)
	g := dgx1()
	nodes := g.GPUs()
	const bytes = 16 << 20
	opts := Options{}
	forest, err := PackForest(g, nodes, DefaultMaxTrees, opts.Seed, !opts.NoDetour)
	if err != nil {
		t.Fatal(err)
	}
	rejected := newEmitter(g, nodes, bytes, forest).rank(DefaultMaxChunks)[0]

	orig := assembleForest
	t.Cleanup(func() { assembleForest = orig })
	assembleForest = func(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, trees []collective.RoutedTree) (*collective.Schedule, error) {
		if len(trees) == rejected.trees && part.NumChunks() == rejected.chunks {
			return nil, errors.New("planted verification failure")
		}
		return orig(g, nodes, part, trees)
	}
	got, err := Synthesize(context.Background(), g, bytes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.Trees == rejected.trees && got.Report.Chunks == rejected.chunks {
		t.Fatal("the rejected variant won")
	}
	cfg := collective.Config{Graph: g, Algorithm: collective.AlgSynth, Bytes: bytes, SynthKey: opts.Fingerprint()}
	if s := collective.DefaultCache.Header(cfg, rejected.trees, chunk.Split(bytes, rejected.chunks)); s != nil {
		t.Fatalf("the shape index holds the rejected variant %+v", rejected)
	}
	if s := collective.DefaultCache.Header(cfg, got.Report.Trees, got.Schedule.Partition); s == nil || !reflect.DeepEqual(s, got.Schedule) {
		t.Fatalf("the shape index does not serve the winner %s", got.Report)
	}
	empty := got.Schedule.Partition
	empty.Sizes = slices.Clone(empty.Sizes)
	empty.Sizes[0] = 0
	if s := collective.DefaultCache.Header(cfg, got.Report.Trees, empty); s != nil {
		t.Fatal("a header was served over a partition with an empty chunk")
	}
}

// TestCanceledInsideJoin: a cancellation joined with other errors still
// reads as a cancellation, so the search stops rather than dropping the
// variant.
func TestCanceledInsideJoin(t *testing.T) {
	ce := &des.CanceledError{Cause: context.Canceled}
	joined := errors.Join(errors.New("channel fault"), fmt.Errorf("wrapped: %w", ce))
	if !isCanceled(joined) {
		t.Fatal("a cancellation inside errors.Join was not recognized")
	}
	if isCanceled(errors.Join(errors.New("a"), errors.New("b"))) {
		t.Fatal("a join without a cancellation read as one")
	}
}
