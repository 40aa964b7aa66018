package synth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// differentialFabrics are the fabrics the emitter is compared with the
// reference compiler on: the served synthesis shapes, the paper's boxes, a
// degraded box and a fabric whose every plan takes a detour.
func differentialFabrics() map[string]func() (*topology.Graph, []topology.NodeID) {
	gpus := func(mk func() *topology.Graph) func() (*topology.Graph, []topology.NodeID) {
		return func() (*topology.Graph, []topology.NodeID) {
			g := mk()
			return g, g.GPUs()
		}
	}
	return map[string]func() (*topology.Graph, []topology.NodeID){
		"dgx1": gpus(dgx1),
		"dgx1-low": gpus(func() *topology.Graph {
			cfg := topology.DefaultDGX1Config()
			cfg.LowBandwidth = true
			return topology.DGX1(cfg)
		}),
		"fc:8":          gpus(func() *topology.Graph { return topology.FullyConnected(8, 25e9, des.Microsecond) }),
		"fcasym:8":      gpus(func() *topology.Graph { return topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1) }),
		"rr:16":         gpus(func() *topology.Graph { return topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1) }),
		"dgx1-degraded": gpus(degradedDGX1),
		"detour":        detourFabric,
	}
}

// TestEmitMatchesReference: every (forest prefix, chunk count) variant the
// emitter compiles is reflect.DeepEqual to the reference pass pipeline's —
// ops, deps in order, relay slots, partition and stream claim — at a
// megabyte and at one byte per chunk, for several packings with and
// without detours.
func TestEmitMatchesReference(t *testing.T) {
	const maxChunks = 64
	detoured := 0
	for name, mk := range differentialFabrics() {
		for _, seed := range []int64{0, 1, 3} {
			for _, noDetour := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/nodetour=%v", name, seed, noDetour), func(t *testing.T) {
					if testing.Short() && seed != 0 {
						t.Skip("one seed per fabric in -short")
					}
					g, nodes := mk()
					forest, err := PackForest(g, nodes, DefaultMaxTrees, seed, !noDetour)
					if err != nil {
						t.Skipf("no forest: %v", err)
					}
					for _, tr := range forest.Trees {
						detoured += tr.Detours
					}
					e := newEmitter(g, nodes, 0, forest)
					if len(e.passes) != len(forest.Trees) {
						t.Fatalf("laid out %d of %d trees", len(e.passes), len(forest.Trees))
					}
					for tr := 1; tr <= len(forest.Trees); tr++ {
						sub := refForestPrefix(forest, tr)
						for k := tr; k <= maxChunks; k++ {
							for _, bytes := range []int64{1 << 20, int64(k)} {
								e.bytes = bytes
								got, gotErr := e.emit(tr, k)
								want, _, wantErr := refSchedule(g, nodes, bytes, sub, k)
								if (gotErr != nil) != (wantErr != nil) {
									t.Fatalf("trees=%d k=%d bytes=%d: emit err %v, reference err %v", tr, k, bytes, gotErr, wantErr)
								}
								if gotErr != nil {
									continue
								}
								if !reflect.DeepEqual(got.Program(), want.Program()) {
									t.Fatalf("trees=%d k=%d bytes=%d: emitted program differs from the reference", tr, k, bytes)
								}
							}
						}
					}
				})
			}
		}
	}
	if detoured == 0 {
		t.Fatal("no compared plan took a detour: the relay path went unchecked")
	}
}

// TestEveryVariantVerifies: the search assembles, and so verifies, only
// the variants it walks to, and stops at the first bound no lower than the
// best makespan so far. That rests on three facts. For every (forest
// prefix, chunk count) variant on the differential fabrics, seeds and
// detour settings, at a megabyte and at one byte per chunk,
// collective.AssembleForest accepts it, and its pass-derived bound equals
// schedcheck.MakespanBound exactly, term by term: critical path and busiest
// channel load. And every variant a search ranks at 1 and 256 MiB
// finishes, when executed, no earlier than its bound.
func TestEveryVariantVerifies(t *testing.T) {
	const maxChunks = 64
	for name, mk := range differentialFabrics() {
		for _, seed := range []int64{0, 1, 3} {
			for _, noDetour := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/nodetour=%v", name, seed, noDetour), func(t *testing.T) {
					if testing.Short() && seed != 0 {
						t.Skip("one seed per fabric in -short")
					}
					g, nodes := mk()
					forest, err := PackForest(g, nodes, DefaultMaxTrees, seed, !noDetour)
					if err != nil {
						t.Skipf("no forest: %v", err)
					}
					e := newEmitter(g, nodes, 0, forest)
					for tr := 1; tr <= len(e.passes); tr++ {
						for k := tr; k <= maxChunks; k++ {
							for _, bytes := range []int64{1 << 20, int64(k)} {
								e.bytes = bytes
								path, load := e.bound(tr, k)
								s, err := e.emit(tr, k)
								if err != nil {
									t.Fatalf("trees=%d k=%d bytes=%d: %v", tr, k, bytes, err)
								}
								want, err := s.MakespanBound()
								if err != nil {
									t.Fatal(err)
								}
								wantPath, err := schedcheck.CriticalPath(s.Program())
								if err != nil {
									t.Fatal(err)
								}
								loads, err := schedcheck.ChannelLoads(s.Program())
								if err != nil {
									t.Fatal(err)
								}
								if max(path, load) != want || path != wantPath || load != slices.Max(loads) {
									t.Fatalf("trees=%d k=%d bytes=%d: pass-derived path %d and load %d, schedcheck's %d and %d (MakespanBound %d)",
										tr, k, bytes, path, load, wantPath, slices.Max(loads), want)
								}
							}
						}
					}
					for _, bytes := range []int64{1 << 20, 256 << 20} {
						e.bytes = bytes
						for tr := 1; tr <= len(e.passes); tr++ {
							for _, k := range chunkCandidates(fabricParams(g, len(nodes)), bytes, tr, DefaultMaxChunks) {
								s, err := e.emit(tr, k)
								if err != nil {
									t.Fatal(err)
								}
								res, err := s.ExecuteCtx(context.Background())
								if err != nil {
									t.Fatal(err)
								}
								if bound := max(e.bound(tr, k)); res.Total < bound {
									t.Fatalf("trees=%d k=%d bytes=%d: executed in %s, below its bound %s", tr, k, bytes, res.Total, bound)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestFallbackPromotesNextByBound plants a verification failure on the
// best-bound variant of a search that variant wins when it verifies. The
// rejected variant is never returned, and it cannot have been executed:
// the search executes only what collective.AssembleForest returns. The
// next variant by bound is assembled in its place, the winner is the
// fastest of the next executeFinalists by bound, and Report.Variants
// counts one variant fewer.
func TestFallbackPromotesNextByBound(t *testing.T) {
	g := dgx1()
	nodes := g.GPUs()
	const bytes = 16 << 20
	opts := Options{NoCache: true}
	clean, err := Synthesize(context.Background(), g, bytes, opts)
	if err != nil {
		t.Fatal(err)
	}

	forest, err := PackForest(g, nodes, DefaultMaxTrees, opts.Seed, !opts.NoDetour)
	if err != nil {
		t.Fatal(err)
	}
	e := newEmitter(g, nodes, bytes, forest)
	ranked := e.rank(DefaultMaxChunks)
	if len(ranked) <= executeFinalists {
		t.Fatalf("%d variants: too few to promote one", len(ranked))
	}
	rejected := ranked[0]
	if clean.Report.Trees != rejected.trees || clean.Report.Chunks != rejected.chunks {
		t.Fatalf("unplanted winner %s is not the best-bound variant %+v", clean.Report, rejected)
	}

	// The winner the search must pick: the fastest of the executeFinalists
	// variants that follow the rejected one, the earlier on a tie.
	want, wantTotal := -1, des.Time(0)
	for i, v := range ranked[1 : 1+executeFinalists] {
		s, err := e.emit(v.trees, v.chunks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.ExecuteCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 || res.Total < wantTotal {
			want, wantTotal = 1+i, res.Total
		}
	}

	orig := assembleForest
	t.Cleanup(func() { assembleForest = orig })
	var assembled []variant
	assembleForest = func(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition, trees []collective.RoutedTree) (*collective.Schedule, error) {
		v := variant{trees: len(trees), chunks: part.NumChunks()}
		assembled = append(assembled, v)
		if v.trees == rejected.trees && v.chunks == rejected.chunks {
			return nil, errors.New("planted verification failure")
		}
		return orig(g, nodes, part, trees)
	}
	got, err := Synthesize(context.Background(), g, bytes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(assembled) < 2 || assembled[0].trees != rejected.trees || assembled[0].chunks != rejected.chunks ||
		assembled[1].trees != ranked[1].trees || assembled[1].chunks != ranked[1].chunks {
		t.Fatalf("assembled %+v; want the rejected %+v, then the next by bound %+v", assembled, rejected, ranked[1])
	}
	s := got.Schedule
	if s.Streams == rejected.trees && s.Partition.NumChunks() == rejected.chunks {
		t.Fatal("the rejected variant was returned")
	}
	if got.Report.Trees != ranked[want].trees || got.Report.Chunks != ranked[want].chunks || got.Run.Total != wantTotal {
		t.Fatalf("winner %s in %s; want %+v in %s", got.Report, got.Run.Total, ranked[want], wantTotal)
	}
	if got.Report.Variants != clean.Report.Variants-1 {
		t.Fatalf("Variants = %d, want %d: the rejected variant no longer counts", got.Report.Variants, clean.Report.Variants-1)
	}
}

// TestSynthesizeMatchesReference: the whole search — variants, ranking,
// finalists, winner — picks the schedule the reference search picks, and
// reports it the same way. Detours is the one field that moved: it now
// counts the winning plan's detoured tree edges, not edges times chunks.
func TestSynthesizeMatchesReference(t *testing.T) {
	for name, mk := range differentialFabrics() {
		for _, seed := range []int64{0, 1, 3} {
			for _, noDetour := range []bool{false, true} {
				for _, bytes := range []int64{1 << 20, 37 << 20, 256 << 20} {
					t.Run(fmt.Sprintf("%s/seed=%d/nodetour=%v/%d", name, seed, noDetour, bytes), func(t *testing.T) {
						if testing.Short() && (seed != 0 || bytes != 1<<20) {
							t.Skip("one seed and size per fabric in -short")
						}
						g, nodes := mk()
						opts := Options{Seed: seed, NoDetour: noDetour, NoCache: true}
						want, wantRep, wantErr := refCompileBest(context.Background(), g, nodes, bytes, opts)
						res, gotErr := Synthesize(context.Background(), g, bytes, opts)
						if (gotErr != nil) != (wantErr != nil) {
							t.Fatalf("Synthesize err %v, reference err %v", gotErr, wantErr)
						}
						if gotErr != nil {
							return
						}
						if !reflect.DeepEqual(res.Schedule, want) {
							t.Fatalf("synthesized schedule differs from the reference's (%s vs %v)", res.Report, wantRep)
						}
						forest, err := PackForest(g, nodes, DefaultMaxTrees, seed, !noDetour)
						if err != nil {
							t.Fatal(err)
						}
						if d := refForestPrefix(forest, res.Report.Trees).Detours; res.Report.Detours != d {
							t.Errorf("Detours = %d, want the plan's %d detoured tree edges", res.Report.Detours, d)
						}
						got := res.Report
						got.Detours, wantRep.Detours = 0, 0
						if !reflect.DeepEqual(got, wantRep) {
							t.Fatalf("report %+v, reference %+v", got, wantRep)
						}
					})
				}
			}
		}
	}
}

// TestReportDetoursCachedMatchesCold: a cache hit reports the same detour
// count as the compile that filled the cache — the winning plan's detoured
// tree edges — on a fabric whose every plan relays.
func TestReportDetoursCachedMatchesCold(t *testing.T) {
	g, _ := detourFabric()
	const bytes = 1 << 20
	opts := Options{Seed: 57}
	cold, err := Synthesize(context.Background(), g, bytes, opts)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Synthesize(context.Background(), g, bytes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.CacheHit || !hit.Report.CacheHit {
		t.Fatalf("cold hit=%v, second hit=%v: want a compile then a cache hit", cold.Report.CacheHit, hit.Report.CacheHit)
	}
	if cold.Report.Detours != 1 || hit.Report.Detours != 1 {
		t.Fatalf("Detours cold=%d hit=%d, want 1 and 1", cold.Report.Detours, hit.Report.Detours)
	}
}

// TestReportSharesCachedMatchesCold: a cache hit reports the same per-tree
// byte shares as the compile that filled the cache — both read them off the
// schedule's partition — on a fabric whose trees run at unequal rates.
func TestReportSharesCachedMatchesCold(t *testing.T) {
	g, _ := differentialFabrics()["fcasym:8"]()
	const bytes = 16<<20 + 3
	opts := Options{Seed: 61}
	cold, err := Synthesize(context.Background(), g, bytes, opts)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Synthesize(context.Background(), g, bytes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report.CacheHit || !hit.Report.CacheHit {
		t.Fatalf("cold hit=%v, second hit=%v: want a compile then a cache hit", cold.Report.CacheHit, hit.Report.CacheHit)
	}
	shares := cold.Report.Shares()
	if !reflect.DeepEqual(shares, hit.Report.Shares()) {
		t.Fatalf("shares cold %v, cached %v", shares, hit.Report.Shares())
	}
	if len(shares) != cold.Report.Trees {
		t.Fatalf("%d shares for %d trees", len(shares), cold.Report.Trees)
	}
	sum := 0.0
	for _, f := range shares {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares %v sum to %v", shares, sum)
	}
	if !strings.Contains(hit.Report.String(), "shares=[") {
		t.Fatalf("report %q does not render the shares", hit.Report)
	}
}

// TestEqualRatesKeepEqualChunks: over packed trees that all run at one
// rate, the rate-weighted emitter compiles exactly the schedules the
// equal-chunk one did — every variant's program and partition match the
// chunk.Split layout, at a megabyte and at a size no chunk count divides.
// On the degraded DGX-1 only the first two trees share a rate (the third
// rides the quarter-rate GPU0–GPU1 links), so it is held to that prefix.
func TestEqualRatesKeepEqualChunks(t *testing.T) {
	fabrics := differentialFabrics()
	for _, name := range []string{"dgx1", "dgx1-low", "fc:8", "rr:16", "dgx1-degraded"} {
		t.Run(name, func(t *testing.T) {
			g, nodes := fabrics[name]()
			forest, err := PackForest(g, nodes, DefaultMaxTrees, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			equal := 1
			for equal < len(forest.Trees) && forest.Trees[equal].Bottleneck == forest.Trees[0].Bottleneck {
				equal++
			}
			want := len(forest.Trees)
			if name == "dgx1-degraded" {
				want = 2
			}
			if equal != want {
				t.Fatalf("the first %d of %d trees share a rate, want %d", equal, len(forest.Trees), want)
			}
			for _, bytes := range []int64{1 << 20, 1<<20 + 37} {
				e := newEmitter(g, nodes, bytes, forest)
				for tr := 1; tr <= equal; tr++ {
					for k := tr; k <= DefaultMaxChunks; k++ {
						got, err := e.emit(tr, k)
						if err != nil {
							t.Fatal(err)
						}
						want, err := collective.AssembleForest(g, nodes, chunk.Split(bytes, k), e.trees[:tr])
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Partition, want.Partition) || !reflect.DeepEqual(got.Program(), want.Program()) {
							t.Fatalf("trees=%d k=%d bytes=%d: the variant differs from its equal-chunk layout", tr, k, bytes)
						}
					}
				}
			}
		})
	}
}

// TestSlowTreePrefixCompetes: on fcasym:8 the packed trees' bottlenecks are
// 25, 18.75 and 12.5 GB/s. Fed at their own rates, the prefix holding the
// slow third tree wins at 16 MiB, and it beats the equal-chunk winner, two
// trees at 64 chunks.
func TestSlowTreePrefixCompetes(t *testing.T) {
	g, nodes := differentialFabrics()["fcasym:8"]()
	const bytes = 16 << 20
	res, err := Synthesize(context.Background(), g, bytes, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Trees != 3 {
		t.Fatalf("winner %s: want all 3 trees", res.Report)
	}
	forest, err := PackForest(g, nodes, DefaultMaxTrees, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	shares := res.Report.Shares()
	for i := range shares {
		want := forest.Trees[i].Bottleneck / (forest.Trees[0].Bottleneck + forest.Trees[1].Bottleneck + forest.Trees[2].Bottleneck)
		if math.Abs(shares[i]-want) > 1e-3 {
			t.Fatalf("tree %d carries %.4f of the message, want its rate share %.4f", i, shares[i], want)
		}
	}
	trees := make([]collective.RoutedTree, 2)
	for i := range trees {
		trees[i] = forest.Trees[i].RoutedTree
	}
	even, err := collective.AssembleForest(g, nodes, chunk.Split(bytes, 64), trees)
	if err != nil {
		t.Fatal(err)
	}
	before, err := even.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Total >= before.Total {
		t.Fatalf("winner %s in %s, no faster than the equal-chunk 2-tree plan's %s", res.Report, res.Run.Total, before.Total)
	}
	t.Logf("%s in %s; equal chunks over 2 trees: %s", res.Report, res.Run.Total, before.Total)
}

// TestEmitReservesExactly: a variant's ops slice and dependency CSR are
// allocated at their final size.
func TestEmitReservesExactly(t *testing.T) {
	g := topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1)
	nodes := g.GPUs()
	forest, err := PackForest(g, nodes, DefaultMaxTrees, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	e := newEmitter(g, nodes, 1<<20, forest)
	s, err := e.emit(len(e.passes), 32)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Program()
	if cap(p.Ops) != len(p.Ops) || cap(p.DepOff) != len(p.DepOff) || cap(p.DepList) != len(p.DepList) {
		t.Fatalf("ops, offsets and deps caps %d, %d, %d, lens %d, %d, %d: the emitter did not reserve exactly",
			cap(p.Ops), cap(p.DepOff), cap(p.DepList), len(p.Ops), len(p.DepOff), len(p.DepList))
	}
}

// TestUnlayoutableTreeEndsUsableForest: a tree collective cannot lay out —
// here one tree edge lost its up route — ends the usable forest, so the
// search ranks only the prefixes before it.
func TestUnlayoutableTreeEndsUsableForest(t *testing.T) {
	g := topology.FullyConnected(8, 25e9, des.Microsecond)
	nodes := g.GPUs()
	forest, err := PackForest(g, nodes, DefaultMaxTrees, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Trees) < 3 {
		t.Fatalf("%d trees: too few to cut one out of the middle", len(forest.Trees))
	}
	broken := *forest.Trees[1]
	broken.Up = slices.Clone(broken.Up)
	broken.Up[broken.ReduceOrder[0]] = topology.Route{}
	forest.Trees[1] = &broken
	e := newEmitter(g, nodes, 1<<20, forest)
	if len(e.passes) != 1 || len(e.trees) != 1 {
		t.Fatalf("usable forest holds %d passes and %d trees, want 1 and 1", len(e.passes), len(e.trees))
	}
	for _, v := range e.rank(DefaultMaxChunks) {
		if v.trees != 1 {
			t.Fatalf("ranked a variant over %d trees", v.trees)
		}
	}
}
