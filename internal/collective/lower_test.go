package collective

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// linkRun runs s as a schedule without a record runs: on a
// successor CSR linked fresh from its own dependency CSR.
func linkRun(t *testing.T, s *Schedule) *Result {
	t.Helper()
	own := *s
	own.g = nil
	r, err := own.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// lowerByRuns runs s until its op graph is lowered, which takes the
// graph's second run, and fails if it is not lowered by then.
func lowerByRuns(t *testing.T, s *Schedule) {
	t.Helper()
	for range 2 {
		if s.g.sk.Load() != nil {
			return
		}
		if _, err := s.ExecuteCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s.g.sk.Load() == nil {
		t.Fatal("two runs did not lower the op graph")
	}
}

// checkSkeletonRun runs s, which must run on its op graph's skeleton, and
// requires the Result of a fresh Link run.
func checkSkeletonRun(t *testing.T, s *Schedule, what string) {
	t.Helper()
	want := linkRun(t, s)
	if s.skeleton() == nil {
		t.Fatalf("%s: does not run on a skeleton", what)
	}
	got, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the skeleton run ends at %v, a Link run at %v", what, got.Total, want.Total)
	}
}

// skeletonFabric is a fabric the skeleton equivalence runs on, at its
// carriers' size.
type skeletonFabric struct {
	name   string
	graph  func() *topology.Graph
	bytes  int64
	shared bool
}

var skeletonFabrics = []skeletonFabric{
	{"cluster64", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(64)) }, 64 << 20, true},
	{"dgx1", dgx1, 16 << 20, false},
}

// TestSkeletonRunsMatchLink pins the lowered skeleton to a fresh Link run
// on cluster:64 and the DGX-1: every built-in served as a same-shape
// header; the overlapped tree and C-Cube served from a 128-chunk carrier
// as a prefix header at every k; the separated tree and double tree
// derived from a 128-chunk carrier at every k below it, and a same-shape
// header over each derived copy; and a repaired clone. Each runs on its op
// graph's skeleton to a Result deep-equal to the Link run's. A skeleton run
// over a dead channel fails on the transfer a Link run fails on.
func TestSkeletonRunsMatchLink(t *testing.T) {
	for _, fab := range skeletonFabrics {
		g := fab.graph()
		base := Config{Graph: g, Bytes: fab.bytes, AllowSharedChannels: fab.shared}
		t.Run(fab.name+"/same-shape", func(t *testing.T) {
			for alg := AlgRing; alg <= AlgHalvingDoubling; alg++ {
				cfg := base
				cfg.Algorithm = alg
				c := NewCache()
				s, err := c.Build(cfg)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				lowerByRuns(t, s)
				checkSkeletonRun(t, s, alg.String())
				cfg.Bytes++
				h, err := c.Build(cfg)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				if h.g != s.g || !sharesOpGraph(h, s) {
					t.Fatalf("%v: the next size is not a header over the first", alg)
				}
				checkSkeletonRun(t, h, fmt.Sprintf("%v header", alg))
			}
		})
		t.Run(fab.name+"/prefix", func(t *testing.T) {
			for _, alg := range []Algorithm{AlgTreeOverlap, AlgDoubleTreeOverlap} {
				cfg := base
				cfg.Algorithm, cfg.Chunks = alg, 128
				c := NewCache()
				carrier, err := c.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				lowerByRuns(t, carrier)
				for k := 1; k <= 128; k++ {
					at := cfg
					at.Chunks, at.Bytes = k, cfg.Bytes+int64(k)
					h, err := c.Build(at)
					if err != nil {
						t.Fatalf("%v k=%d: %v", alg, k, err)
					}
					if h.g != carrier.g || !sharesPrefix(h, carrier) {
						t.Fatalf("%v k=%d: not a header over the carrier's prefix", alg, k)
					}
					checkSkeletonRun(t, h, fmt.Sprintf("%v k=%d", alg, k))
				}
			}
		})
		t.Run(fab.name+"/derived", func(t *testing.T) {
			for _, alg := range []Algorithm{AlgTree, AlgDoubleTree} {
				cfg := base
				cfg.Algorithm, cfg.Chunks = alg, 128
				c := NewCache()
				carrier, err := c.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := carrier.Streams; k < 128; k++ {
					at := cfg
					at.Chunks, at.Bytes = k, cfg.Bytes+int64(k)
					d, err := c.Build(at)
					if err != nil {
						t.Fatalf("%v k=%d: %v", alg, k, err)
					}
					if d.g == carrier.g || sharesOpGraph(d, carrier) {
						t.Fatalf("%v k=%d: not a derived copy", alg, k)
					}
					lowerByRuns(t, d)
					checkSkeletonRun(t, d, fmt.Sprintf("%v derived k=%d", alg, k))
					at.Bytes += 1 << 10
					h, err := c.Build(at)
					if err != nil {
						t.Fatalf("%v k=%d: %v", alg, k, err)
					}
					if h.g != d.g || !sharesOpGraph(h, d) {
						t.Fatalf("%v k=%d: the next size is not a header over the derived copy", alg, k)
					}
					checkSkeletonRun(t, h, fmt.Sprintf("%v header over derived k=%d", alg, k))
				}
			}
		})
		t.Run(fab.name+"/repaired", func(t *testing.T) {
			g := fab.graph()
			cfg := base
			cfg.Graph, cfg.Algorithm = g, AlgDoubleTreeOverlap
			s, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lowerByRuns(t, s)
			g.KillChannel(usedChannels(s)[0])
			repaired, _, err := RepairSchedule(s, g.DownChannels(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if repaired.g == s.g || repaired.g.sk.Load() != nil {
				t.Fatal("the repaired clone shares its base's record")
			}
			lowerByRuns(t, repaired)
			checkSkeletonRun(t, repaired, "repaired")
		})
		t.Run(fab.name+"/dead-channel", func(t *testing.T) {
			g := fab.graph()
			cfg := base
			cfg.Graph, cfg.Algorithm = g, AlgDoubleTreeOverlap
			s, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lowerByRuns(t, s)
			g.KillChannel(usedChannels(s)[1])
			s.stamp() // stamped for the killed channel, so only the lowering refuses it
			own := *s
			own.g = nil
			_, linkErr := own.ExecuteCtx(context.Background())
			if s.skeleton() == nil {
				t.Fatal("does not run on a skeleton")
			}
			_, err = s.ExecuteCtx(context.Background())
			var got, want *DeadChannelError
			if !errors.As(err, &got) || !errors.As(linkErr, &want) || *got != *want {
				t.Fatalf("the skeleton run fails with %v, a Link run with %v", err, linkErr)
			}
		})
	}
}

// TestPooledFlatLeavesSkeletonIntact: pooled runs that borrow a skeleton,
// interleaved with pooled runs that link other schedules' successor CSRs
// (a checkpointed run, which binds resources, and runs without a record),
// leave the skeleton byte-identical.
func TestPooledFlatLeavesSkeletonIntact(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lowerByRuns(t, s)
	sk := s.g.sk.Load()
	want := *sk
	want.Pending, want.SuccOff, want.Succ = slices.Clone(sk.Pending), slices.Clone(sk.SuccOff), slices.Clone(sk.Succ)
	want.ready = slices.Clone(sk.ready)
	ctx := context.Background()
	for _, alg := range []Algorithm{AlgRing, AlgHalvingDoubling, AlgTree} {
		other, err := Build(Config{Graph: g, Algorithm: alg, Bytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			if _, err := s.ExecuteCtx(ctx); err != nil {
				t.Fatal(err)
			}
			if _, _, err := other.ExecuteCheckpointCtx(ctx, g.Resources()); err != nil {
				t.Fatal(err)
			}
			linkRun(t, other)
		}
		if s.g.sk.Load() != sk || !reflect.DeepEqual(*sk, want) {
			t.Fatalf("pooled runs of %v changed the borrowed skeleton", alg)
		}
	}
}

// TestConcurrentHeadersLowerOnce runs every prefix header over one
// carrier from several goroutines at once while the carrier's skeleton is
// first built (run it with -race): every run returns the Result a
// single-threaded Link run does, and the headers end up sharing one
// skeleton.
func TestConcurrentHeadersLowerOnce(t *testing.T) {
	c := NewCache()
	cfg := Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 16 << 20, Chunks: 128}
	carrier, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var headers []*Schedule
	var want []*Result
	for k := 1; k <= 128; k++ {
		at := cfg
		at.Chunks, at.Bytes = k, cfg.Bytes+int64(k)
		h, err := c.Build(at)
		if err != nil {
			t.Fatal(err)
		}
		headers = append(headers, h)
		want = append(want, linkRun(t, h))
	}
	if carrier.g.sk.Load() != nil {
		t.Fatal("the carrier was lowered before any run")
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range headers {
				i := (j + 16*w) % len(headers)
				got, err := headers[i].ExecuteCtx(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%d chunks: a concurrent run ends at %v, a Link run at %v", i+1, got.Total, want[i].Total)
				}
			}
		}()
	}
	wg.Wait()
	sk := carrier.g.sk.Load()
	for _, h := range headers {
		if h.skeleton() != sk || sk == nil {
			t.Fatal("the headers do not share the carrier's one skeleton")
		}
	}
}

// TestRetainedBytesCountsSkeleton: the cache counts an op graph's lowered
// skeleton from its second run on, at its exact size (pending counts,
// successor offsets and CSR in one block; the ready-id matrix in another),
// once per op graph however many headers run on it, and drops it with the
// graph; a graph lowered after it left the cache is not counted.
func TestRetainedBytesCountsSkeleton(t *testing.T) {
	skeletonSize := func(s *Schedule) int64 {
		n := int64(len(s.ops))
		return 4 * (n + n + 2 + int64(s.depOff[n]) + int64(len(s.Nodes)*s.Partition.NumChunks()))
	}
	ctx := context.Background()
	c := NewCache()
	cfg := Config{Graph: dgx1(), Algorithm: AlgTree, Bytes: 16 << 20, Chunks: 32}
	carrier, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := opGraphBytes(carrier)
	for run := 1; run <= 3; run++ {
		if _, err := carrier.ExecuteCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if run == 2 {
			want += skeletonSize(carrier)
		}
		if got := c.RetainedBytes(); got != want {
			t.Fatalf("after %d runs: RetainedBytes = %d, want %d", run, got, want)
		}
	}
	at := cfg
	at.Chunks = 12
	d, err := c.Build(at)
	if err != nil {
		t.Fatal(err)
	}
	lowerByRuns(t, d)
	at.Bytes++
	h, err := c.Build(at)
	if err != nil {
		t.Fatal(err)
	}
	lowerByRuns(t, h)
	if got, all := c.RetainedBytes(), want+opGraphBytes(d)+skeletonSize(d); got != all {
		t.Fatalf("with a lowered derived copy and a header over it: RetainedBytes = %d, want %d", got, all)
	}
	c.Evict(at)
	at.Bytes--
	c.Evict(at)
	if got := c.RetainedBytes(); got != want {
		t.Fatalf("after evicting the derived copy: RetainedBytes = %d, want the carrier's %d", got, want)
	}
	at.Chunks = 20
	late, err := c.Build(at)
	if err != nil {
		t.Fatal(err)
	}
	c.Evict(at)
	lowerByRuns(t, late)
	if got := c.RetainedBytes(); got != want {
		t.Fatalf("a copy lowered after its eviction: RetainedBytes = %d, want the carrier's %d", got, want)
	}
	c.Clear()
	if got := c.RetainedBytes(); got != 0 {
		t.Fatalf("after Clear: RetainedBytes = %d", got)
	}
}

// TestInstantiateNeverLowers: Instantiate counts no run of the op graph, so
// a graph only ever instantiated (the training path) holds no skeleton;
// once executor runs have built one, Instantiate reads its ready ids, and
// the block's Result is unchanged.
func TestInstantiateNeverLowers(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	instantiate := func() *Result {
		t.Helper()
		dg := des.NewGraph()
		b, err := s.Instantiate(dg, g.Resources(), -1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dg.RunCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		return b.Result(dg)
	}
	want := instantiate()
	for range 3 {
		if got := instantiate(); !reflect.DeepEqual(got, want) {
			t.Fatalf("an instantiated run ends at %v, the first at %v", got.Total, want.Total)
		}
	}
	if s.g.sk.Load() != nil {
		t.Fatal("Instantiate lowered the op graph")
	}
	lowerByRuns(t, s)
	if s.builtSkeleton() == nil {
		t.Fatal("two executor runs did not give Instantiate a skeleton to read")
	}
	if got := instantiate(); !reflect.DeepEqual(got, want) {
		t.Fatalf("on the skeleton's ready ids an instantiated run ends at %v, without at %v", got.Total, want.Total)
	}
}
