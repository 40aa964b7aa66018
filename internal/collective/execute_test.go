package collective

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// TestExecuteFillRunZeroAllocSteadyState pins ExecuteCtx's per-transfer
// work to zero allocations: filling a warm des.Flat straight from the ops
// and running it allocates nothing on the 64-GPU C-Cube schedule, so what
// ExecuteCtx allocates is the Result alone, whatever the transfer count.
func TestExecuteFillRunZeroAllocSteadyState(t *testing.T) {
	g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
		AllowSharedChannels: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := new(run)
	var total des.Time
	cycle := func() {
		if _, err := s.fill(f, nil, nil); err != nil {
			t.Fatal(err)
		}
		if total, err = f.RunCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up: grow the columns and the queue once
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("warm fill+run of %d transfers allocates %.1f/op", s.NumTransfers(), allocs)
	}
	res, err := s.ExecuteCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != total {
		t.Fatalf("ExecuteCtx total %v, warm run %v", res.Total, total)
	}
}

// TestExecuteConcurrentRunsAgree runs one cached schedule from several
// goroutines at once, as concurrent requests do: each run takes its own
// pooled des.Flat, so every result equals the serial one.
func TestExecuteConcurrentRunsAgree(t *testing.T) {
	s, err := Build(Config{Graph: topology.DGX1(topology.DefaultDGX1Config()), Algorithm: AlgDoubleTreeOverlap,
		Bytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := s.ExecuteCtx(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent run total %v, serial %v", got.Total, want.Total)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Every executor refuses a schedule no constructor proved: a hand-made one
// and a clone of a built one (RepairSchedule's working copy) each get
// ErrUnverified, and RepairSchedule will not patch either.
func TestExecutorsRefuseUnverified(t *testing.T) {
	g := dgx1()
	built, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cp := &Checkpoint{Executed: make([]bool, built.NumTransfers()), End: make([]des.Time, built.NumTransfers()),
		FreeAt: make([]des.Time, g.NumChannels())}
	executors := map[string]func(s *Schedule) error{
		"ExecuteCtx": func(s *Schedule) error { _, err := s.ExecuteCtx(ctx); return err },
		"ExecuteOnCtx": func(s *Schedule) error {
			_, _, err := s.ExecuteOnCtx(ctx, g.Resources())
			return err
		},
		"ExecuteCheckpointCtx": func(s *Schedule) error {
			_, _, err := s.ExecuteCheckpointCtx(ctx, g.Resources())
			return err
		},
		"ResumeOnCtx": func(s *Schedule) error {
			_, _, err := s.ResumeOnCtx(ctx, cp, g.Resources())
			return err
		},
		"Instantiate": func(s *Schedule) error {
			_, err := s.Instantiate(des.NewGraph(), g.Resources(), -1)
			return err
		},
		"RepairSchedule": func(s *Schedule) error {
			_, _, err := RepairSchedule(s, nil, nil)
			return err
		},
	}
	for kind, s := range map[string]*Schedule{"hand-made": {}, "clone": built.clone()} {
		for name, run := range executors {
			if err := run(s); !errors.Is(err, ErrUnverified) {
				t.Errorf("%s %s: got %v, want ErrUnverified", kind, name, err)
			}
		}
	}
	for name, run := range executors {
		if err := run(built); err != nil {
			t.Errorf("built %s: %v", name, err)
		}
	}
}
