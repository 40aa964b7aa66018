package collective

import "fmt"

// Hooks for the external test package, which can import internal/synth.
var (
	EncodeSchedule = encodeSchedule
	DecodeSchedule = decodeSchedule
)

// Stamp binds s to its graph's current fingerprint, as a cache load does.
func (s *Schedule) Stamp() { s.stamp() }

// ArenaError checks the schedule's arena invariant: op i's deps are the next
// len(Deps) arena entries, as a three-index subslice, and the arena holds
// exactly the ops' deps.
func (s *Schedule) ArenaError() error {
	off := 0
	for i := range s.ops {
		d := s.ops[i].Deps
		if cap(d) != len(d) {
			return fmt.Errorf("op %d: deps cap %d != len %d: an append would overwrite a neighbour", i, cap(d), len(d))
		}
		if len(d) > 0 && (off+len(d) > len(s.deps) || &d[0] != &s.deps[off]) {
			return fmt.Errorf("op %d: deps are not arena entries [%d,%d)", i, off, off+len(d))
		}
		off += len(d)
	}
	if off != len(s.deps) {
		return fmt.Errorf("arena holds %d deps, ops hold %d", len(s.deps), off)
	}
	return nil
}
