package collective

import "fmt"

// Stamp binds s to its graph's current fingerprint without proving it.
func (s *Schedule) Stamp() { s.stamp() }

// CSRError checks the schedule's dependency CSR: one offset per op plus a
// leading 0, rows in order, and the last row ending the deps slice.
func (s *Schedule) CSRError() error {
	n := len(s.ops)
	if len(s.depOff) != n+1 || s.depOff[0] != 0 {
		return fmt.Errorf("%d offsets for %d ops", len(s.depOff), n)
	}
	for i := 0; i < n; i++ {
		if s.depOff[i+1] < s.depOff[i] {
			return fmt.Errorf("op %d: row [%d,%d) runs backwards", i, s.depOff[i], s.depOff[i+1])
		}
	}
	if int(s.depOff[n]) != len(s.deps) {
		return fmt.Errorf("rows cover %d deps, the CSR holds %d", s.depOff[n], len(s.deps))
	}
	return nil
}

// depLists returns s's dependencies as one list per transfer, for tests
// that edit them and write them back with setDeps.
func (s *Schedule) depLists() [][]int {
	out := make([][]int, len(s.ops))
	for i := range s.ops {
		for _, d := range s.depsOf(i) {
			out[i] = append(out[i], int(d))
		}
	}
	return out
}

// setDeps replaces s's dependency CSR with deps[i] as transfer i's.
func (s *Schedule) setDeps(deps [][]int) {
	p := s.Program()
	p.SetDeps(deps)
	s.depOff, s.deps = p.DepOff, p.DepList
}
