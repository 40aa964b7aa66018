package schedcheck_test

import (
	"context"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// dependentsOf inverts the dependency lists: row i holds the ops listing i.
func dependentsOf(p *schedcheck.Program) [][]int {
	dependents := make([][]int, len(p.Ops))
	for i := range p.Ops {
		for _, d := range p.Ops[i].Deps {
			dependents[d] = append(dependents[d], i)
		}
	}
	return dependents
}

// descendants marks every op reachable from `from` by a non-empty
// dependency path, by breadth-first search.
func descendants(dependents [][]int, from int) []bool {
	seen := make([]bool, len(dependents))
	queue := append([]int(nil), dependents[from]...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		queue = append(queue, dependents[id]...)
	}
	return seen
}

// stillReaches reports whether a dependency path from -> to survives in the
// (already mutated) program.
func stillReaches(p *schedcheck.Program, from, to int) bool {
	return descendants(dependentsOf(p), from)[to]
}

// assertExactReach compares the verifier's reachability closure with an
// independent BFS from every op, over every ordered pair. Structurally
// invalid programs have no closure and are skipped.
func assertExactReach(t *testing.T, p *schedcheck.Program) {
	t.Helper()
	reaches, err := schedcheck.Reaches(p)
	if err != nil {
		return
	}
	dependents := dependentsOf(p)
	for a := range p.Ops {
		want := descendants(dependents, a)
		for b := range p.Ops {
			if got := reaches(a, b); got != want[b] {
				t.Fatalf("reaches(%d, %d) = %v, BFS says %v", a, b, got, want[b])
			}
		}
	}
}

// maxExactOps bounds the programs whose closure the fuzz target re-derives
// by BFS (quadratic in ops).
const maxExactOps = 2000

// check and checkDeep run the verifier and, on programs of at most
// maxExactOps ops, assert its reachability closure is exact.
func check(t *testing.T, p *schedcheck.Program) *schedcheck.Report {
	t.Helper()
	if len(p.Ops) <= maxExactOps {
		assertExactReach(t, p)
	}
	return schedcheck.Check(p)
}

func checkDeep(t *testing.T, p *schedcheck.Program) *schedcheck.Report {
	t.Helper()
	if len(p.Ops) <= maxExactOps {
		assertExactReach(t, p)
	}
	return schedcheck.CheckDeep(p)
}

// TestReachabilityIsExact pins the position-space closure to BFS on every
// schedule family: built-ins on fc:8 and DGX-1, the two-box hierarchy,
// synthesis on a random regular graph, and a repaired schedule.
func TestReachabilityIsExact(t *testing.T) {
	type tc struct {
		name  string
		build func(t *testing.T) *schedcheck.Program
	}
	var cases []tc
	for _, alg := range allAlgorithms {
		cases = append(cases,
			tc{"fc8/" + alg.String(), func(t *testing.T) *schedcheck.Program {
				return buildProgram(t, collective.Config{Graph: fullyConnected(8), Algorithm: alg,
					Bytes: 1 << 20, Chunks: 8, AllowSharedChannels: true})
			}},
			tc{"dgx1/" + alg.String(), func(t *testing.T) *schedcheck.Program {
				return buildProgram(t, collective.Config{Graph: dgx1(), Algorithm: alg, Bytes: 1 << 20, Chunks: 8})
			}})
	}
	cases = append(cases,
		tc{"hier16", func(t *testing.T) *schedcheck.Program {
			mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			s, err := collective.BuildHierarchical(collective.HierarchicalConfig{
				Cluster: mn, Bytes: 1 << 20, Chunks: 8, Chained: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s.Program()
		}},
		tc{"rr16/synth", func(t *testing.T) *schedcheck.Program {
			g := topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1)
			res, err := synth.Synthesize(context.Background(), g, 1<<20, synth.Options{MaxChunks: 8, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.Schedule.Program()
		}},
		tc{"dgx1/repaired", func(t *testing.T) *schedcheck.Program {
			g := dgx1()
			s, err := collective.Build(collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap,
				Bytes: 1 << 20, Chunks: 8})
			if err != nil {
				t.Fatal(err)
			}
			p := s.Program()
			for i := range p.Ops {
				if !p.Ops[i].Marker() {
					g.KillChannel(p.Ops[i].Channel)
					break
				}
			}
			repaired, _, err := collective.RepairSchedule(s, g.DownChannels(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return repaired.Program()
		}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.build(t)
			if r := schedcheck.Check(p); !r.OK() {
				t.Fatal(r.Err())
			}
			assertExactReach(t, p)
		})
	}
}
