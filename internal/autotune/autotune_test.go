package autotune

import (
	"context"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/topology"
)

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

func TestCandidatesCoverAllAlgorithms(t *testing.T) {
	cands, err := CandidatesWith(context.Background(), dgx1(), 16<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 6 {
		t.Fatalf("candidates = %d, want 6", len(cands))
	}
	for _, c := range cands {
		if c.Err != nil {
			t.Errorf("%v failed on DGX-1: %v", c.Algorithm, c.Err)
		}
		if c.Total <= 0 || c.Turnaround <= 0 {
			t.Errorf("%v: non-positive metrics", c.Algorithm)
		}
	}
}

func TestSelectLatencyPrefersOverlapAtLargeSizes(t *testing.T) {
	// At 64MB on the DGX-1, the overlapped double tree has the best total
	// time of all candidates (Fig. 12's headline).
	best, err := BestWith(context.Background(), dgx1(), 64<<20, Options{Objective: Latency})
	if err != nil {
		t.Fatal(err)
	}
	if best.Algorithm != collective.AlgDoubleTreeOverlap {
		t.Errorf("64MB latency winner = %v, want double-tree-overlap", best.Algorithm)
	}
}

func TestSelectTurnaroundPrefersOverlap(t *testing.T) {
	best, err := BestWith(context.Background(), dgx1(), 64<<20, Options{Objective: Turnaround})
	if err != nil {
		t.Fatal(err)
	}
	if best.Algorithm != collective.AlgDoubleTreeOverlap &&
		best.Algorithm != collective.AlgTreeOverlap {
		t.Errorf("turnaround winner = %v, want an overlapped tree", best.Algorithm)
	}
}

func TestSelectInOrderConstraintExcludesRing(t *testing.T) {
	ranked, err := SelectWith(context.Background(), dgx1(), 64<<20, Options{RequireInOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ranked {
		if !c.InOrder {
			t.Errorf("%v in the in-order ranking", c.Algorithm)
		}
		if c.Algorithm == collective.AlgRing || c.Algorithm == collective.AlgHalvingDoubling {
			t.Errorf("%v must be excluded by RequireInOrder", c.Algorithm)
		}
	}
}

func TestSelectRankingIsSorted(t *testing.T) {
	for _, o := range []Objective{Latency, Turnaround} {
		ranked, err := SelectWith(context.Background(), dgx1(), 4<<20, Options{Objective: o})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i].metric(o) < ranked[i-1].metric(o) {
				t.Fatalf("%v ranking not sorted at %d", o, i)
			}
		}
	}
}

func TestCandidatesReportInfeasible(t *testing.T) {
	// 6 GPUs: halving-doubling cannot run; others may or may not.
	g := topology.FullyConnected(6, 25e9, 3*des.Microsecond)
	cands, err := CandidatesWith(context.Background(), g, 1<<20, Options{AllowShared: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		if c.Algorithm == collective.AlgHalvingDoubling {
			found = true
			if c.Err == nil {
				t.Error("halving-doubling ran on 6 GPUs")
			}
		}
	}
	if !found {
		t.Fatal("halving-doubling not evaluated")
	}
}

func TestSelectionShiftsWithMessageSize(t *testing.T) {
	// The winner set must not be constant across the size spectrum: at tiny
	// sizes latency-optimal (log-depth) algorithms win; at huge sizes
	// bandwidth-optimal schedules win. Verify the top choice at 4kB differs
	// in character from 256MB by comparing their latency structure.
	small, err := SelectWith(context.Background(), dgx1(), 4<<10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := SelectWith(context.Background(), dgx1(), 256<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ring (2(P-1) alpha steps) must rank worse at 4kB than at 256MB.
	rank := func(cands []Candidate, alg collective.Algorithm) int {
		for i, c := range cands {
			if c.Algorithm == alg {
				return i
			}
		}
		return -1
	}
	if rank(small, collective.AlgRing) <= rank(big, collective.AlgRing) {
		t.Errorf("ring rank at 4kB (%d) not worse than at 256MB (%d)",
			rank(small, collective.AlgRing), rank(big, collective.AlgRing))
	}
}

func TestObjectiveString(t *testing.T) {
	if Latency.String() != "latency" || Turnaround.String() != "turnaround" {
		t.Fatal("objective strings wrong")
	}
}
