package synth

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/topology"
)

// memoized returns the plan collective.DefaultCache keeps for g's GPUs
// under opts, or nil when it keeps none. It never builds one.
func memoized(g *topology.Graph, opts Options) *plan {
	cfg := collective.Config{Graph: g, Algorithm: collective.AlgSynth, SynthKey: opts.Fingerprint(), Nodes: g.GPUs()}
	v, err := collective.DefaultCache.Memo(cfg, func() (any, error) { return nil, errors.New("not kept") })
	if err != nil {
		return nil
	}
	return v.(*plan)
}

// sameAsCold fails t unless res, a compile through the cache, returned the
// partition, program and Report a NoCache compile of g at bytes returns.
func sameAsCold(t *testing.T, g *topology.Graph, bytes int64, res *Result) {
	t.Helper()
	cold, err := Synthesize(context.Background(), g, bytes, Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Schedule.Partition, cold.Schedule.Partition) || !reflect.DeepEqual(res.Schedule.Program(), cold.Schedule.Program()) {
		t.Fatalf("%d bytes: schedule %s differs from a NoCache compile's %s", bytes, res.Report, cold.Report)
	}
	if !reflect.DeepEqual(res.Report, cold.Report) {
		t.Fatalf("%d bytes: report %s, NoCache %s", bytes, res.Report, cold.Report)
	}
}

// usesChannel reports whether some tree of p routes over ch.
func usesChannel(p *plan, ch topology.ChannelID) bool {
	for _, tr := range p.trees {
		for v := range tr.Up {
			if slices.Contains(tr.Up[v].Channels, ch) || slices.Contains(tr.Down[v].Channels, ch) {
				return true
			}
		}
	}
	return false
}

// TestForestMemoMatchesColdCompile: the packed forest and its chunk passes
// are computed once per fabric and kept through collective.DefaultCache.
// On every differential fabric, compiles from 1 to 256 MiB through the memo
// return the partition, program and Report of a NoCache compile, and all
// share the plan the first one kept. Goroutines compiling one fabric over
// an empty memo each get the NoCache result. Degrading a channel the
// forest rides changes the graph's fingerprint, so the next compile misses
// the memo and repacks; the new forest avoids the channel on the fabrics
// with channels to spare (fc:8, fcasym:8, rr:16), while the DGX-1s' three
// trees claim 42 of their 48 channels and the detour fabric's one tree
// every channel. Clear drops the memo and a disabled cache bypasses it.
func TestForestMemoMatchesColdCompile(t *testing.T) {
	c := collective.DefaultCache
	c.Clear()
	t.Cleanup(c.Clear)
	spare := map[string]bool{"fc:8": true, "fcasym:8": true, "rr:16": true}
	for name, mk := range differentialFabrics() {
		t.Run(name, func(t *testing.T) {
			g, _ := mk()
			var kept *plan
			for _, base := range []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20} {
				for _, bytes := range []int64{base, base + 4097} {
					res, err := Synthesize(context.Background(), g, bytes, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if res.Report.CacheHit {
						t.Fatalf("%d bytes: a new size was a schedule-cache hit", bytes)
					}
					sameAsCold(t, g, bytes, res)
					p := memoized(g, Options{})
					if p == nil || (kept != nil && p != kept) {
						t.Fatalf("%d bytes: the memo holds plan %p, want the first compile's %p", bytes, p, kept)
					}
					kept = p
				}
			}

			ch := kept.trees[0].Up[kept.trees[0].Order[1]].Channels[0]
			g.DegradeChannel(ch, 8)
			if memoized(g, Options{}) != nil {
				t.Fatal("the degraded graph was served the healthy graph's plan")
			}
			res, err := Synthesize(context.Background(), g, 16<<20+1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameAsCold(t, g, 16<<20+1, res)
			p := memoized(g, Options{})
			if p == nil || p == kept {
				t.Fatal("the compile on the degraded graph kept no plan of its own")
			}
			if used := usesChannel(p, ch); used == spare[name] {
				t.Fatalf("the repacked forest rides the degraded channel: %v, want %v", used, !spare[name])
			}
		})
	}

	t.Run("concurrent", func(t *testing.T) {
		c.Clear()
		g, _ := differentialFabrics()["rr:16"]()
		sizes := []int64{1 << 20, 3 << 20, 16<<20 + 5, 37 << 20, 64<<20 + 1, 256 << 20}
		var wg sync.WaitGroup
		results := make([]*Result, 4*len(sizes))
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range sizes {
					i := (j + w) % len(sizes)
					res, err := Synthesize(context.Background(), g, sizes[i]+int64(w), Options{})
					if err != nil {
						t.Error(err)
						return
					}
					results[w*len(sizes)+i] = res
				}
			}()
		}
		wg.Wait()
		for w := range 4 {
			for i, bytes := range sizes {
				if res := results[w*len(sizes)+i]; res != nil {
					sameAsCold(t, g, bytes+int64(w), res)
				}
			}
		}
		if memoized(g, Options{}) == nil {
			t.Fatal("the concurrent compiles kept no plan")
		}
	})

	t.Run("clear-and-disable", func(t *testing.T) {
		g := dgx1()
		if _, err := Synthesize(context.Background(), g, 1<<20, Options{}); err != nil {
			t.Fatal(err)
		}
		kept := memoized(g, Options{})
		if kept == nil {
			t.Fatal("a cached compile kept no plan")
		}
		c.SetEnabled(false)
		res, err := Synthesize(context.Background(), g, 2<<20, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if memoized(g, Options{}) != nil {
			t.Fatal("a disabled cache served a plan")
		}
		c.SetEnabled(true)
		sameAsCold(t, g, 2<<20, res)
		if memoized(g, Options{}) != kept {
			t.Fatal("the plan kept before the cache was disabled is gone")
		}
		c.Clear()
		if memoized(g, Options{}) != nil {
			t.Fatal("Clear left the plan")
		}
	})
}

// TestPackForestReachesChannelBound pins how many channel-disjoint trees
// the search packs at the default ceiling: the DGX-1 in both link
// generations and with degraded GPU0–GPU1 links 3 of its 48 NVLink
// channels' bound ⌊48 ÷ 14⌋, the random 4-regular rr:16 2 of ⌊64 ÷ 30⌋,
// fc:4 2 of ⌊12 ÷ 6⌋ and fc:16 the ceiling of 4; fc:8 and fcasym:8, bound
// 4, at least 3.
func TestPackForestReachesChannelBound(t *testing.T) {
	fabrics := differentialFabrics()
	cases := []struct {
		name     string
		graph    func() *topology.Graph
		min, max int
	}{
		{"dgx1", dgx1, 3, 3},
		{"dgx1-low", func() *topology.Graph { g, _ := fabrics["dgx1-low"](); return g }, 3, 3},
		{"dgx1-degraded", degradedDGX1, 3, 3},
		{"rr:16", func() *topology.Graph { g, _ := fabrics["rr:16"](); return g }, 2, 2},
		{"fc:4", func() *topology.Graph { return fc(4) }, 2, 2},
		{"fc:16", func() *topology.Graph { return fc(16) }, DefaultMaxTrees, DefaultMaxTrees},
		{"fc:8", func() *topology.Graph { return fc(8) }, 3, 4},
		{"fcasym:8", func() *topology.Graph { g, _ := fabrics["fcasym:8"](); return g }, 3, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph()
			nodes := g.GPUs()
			f, err := PackForest(g, nodes, DefaultMaxTrees, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			checkForest(t, g, nodes, f)
			if n := len(f.Trees); n < tc.min || n > tc.max {
				t.Fatalf("packed %d trees, want %d to %d", n, tc.min, tc.max)
			}
			if b := channelBound(g, nodes, DefaultMaxTrees); tc.max > b {
				t.Fatalf("channel bound %d, below the pinned %d", b, tc.max)
			}
			first, err := packRotation(g, nodes, DefaultMaxTrees, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d trees; the first rotation alone packs %d", len(f.Trees), len(first.Trees))
		})
	}
}
