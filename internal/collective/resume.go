package collective

import (
	"context"
	"fmt"

	"ccube/internal/des"
)

// Checkpoint captures the state of a run that a resource fault aborted: the
// executed prefix with per-transfer completion times, the per-channel
// occupancy horizon, and the virtual time reached. It is everything
// ResumeOnCtx needs to continue the run on a patched schedule without
// re-simulating (or re-paying for) the work that already happened.
type Checkpoint struct {
	// At is the virtual time the aborted run had reached.
	At des.Time
	// Executed[i] reports whether transfer i completed; End[i] is its
	// completion time (zero when not executed). Indexes follow the schedule
	// the checkpoint was taken against.
	Executed []bool
	End      []des.Time
	// FreeAt[c] is channel c's next-idle time when the run aborted (index =
	// topology.ChannelID). Resume carries it over as initial occupancy so
	// the virtual clock continues instead of restarting at zero.
	FreeAt []des.Time
	// NumExecuted counts true entries in Executed.
	NumExecuted int
}

// Remap translates the checkpoint onto an incrementally patched schedule:
// oldToNew is PatchReport.OldToNew and n the patched schedule's transfer
// count. Transfers new to the patch (spliced detour hops) start unexecuted.
func (cp *Checkpoint) Remap(oldToNew []int, n int) *Checkpoint {
	out := &Checkpoint{
		At:          cp.At,
		Executed:    make([]bool, n),
		End:         make([]des.Time, n),
		FreeAt:      append([]des.Time(nil), cp.FreeAt...),
		NumExecuted: cp.NumExecuted,
	}
	for old, id := range oldToNew {
		if cp.Executed[old] {
			out.Executed[id] = true
			out.End[id] = cp.End[old]
		}
	}
	return out
}

// ExecuteCheckpointCtx is ExecuteOnCtx that, when a resource fault aborts
// the run, additionally returns a Checkpoint of the executed prefix so the
// caller can patch the schedule and resume (fault.Mode adapt) instead of
// discarding the progress and relaunching. The error is still returned — a
// checkpoint is an aborted run, not a result. Cancellation and other errors
// return no checkpoint.
func (s *Schedule) ExecuteCheckpointCtx(ctx context.Context, res []*des.Resource) (*Result, *Checkpoint, error) {
	if err := s.checkResources(res); err != nil {
		return nil, nil, err
	}
	r, _, cp, err := s.execute(ctx, res, nil, false)
	return r, cp, err
}

// checkpointFrom reads the executed prefix out of an aborted run of f; at is
// the virtual time the run reached (the makespan of the executed prefix).
// After a resumed run, f's executed prefix includes the checkpoint it
// resumed from.
func (s *Schedule) checkpointFrom(f *des.Flat, at des.Time) *Checkpoint {
	cp := &Checkpoint{
		At:       at,
		Executed: make([]bool, len(s.ops)),
		End:      append([]des.Time(nil), f.End...),
		FreeAt:   append([]des.Time(nil), f.FreeAt...),
	}
	for i := range s.ops {
		if f.Done(i) {
			cp.Executed[i] = true
			cp.NumExecuted++
		}
	}
	return cp
}

// ResumeOnCtx continues a checkpointed run on the same run loop as
// ExecuteCtx: executed transfers count as done at their recorded End; a
// dependency on one becomes an earliest-start bound at that time; and every
// channel starts busy until the checkpoint's FreeAt horizon, so the virtual
// clock — and with it every resumed timestamp — stays absolute. The caller
// provides fresh resources (re-armed with the fault plan's remaining
// breakpoints at their original absolute times).
//
// On success the Result merges executed and resumed completion times, so
// Total is directly comparable with an uninterrupted run of the same
// schedule; its ChannelBusy counts the resumed transfers. A further
// resource fault returns a merged Checkpoint covering both the old prefix
// and the newly executed transfers, enabling chained adaptation under
// sustained churn.
func (s *Schedule) ResumeOnCtx(ctx context.Context, cp *Checkpoint, res []*des.Resource) (*Result, *Checkpoint, error) {
	if err := s.checkResources(res); err != nil {
		return nil, nil, err
	}
	if cp == nil {
		return nil, nil, fmt.Errorf("collective: resume without a checkpoint")
	}
	if len(cp.Executed) != len(s.ops) || len(cp.End) != len(s.ops) {
		return nil, nil, fmt.Errorf("collective: checkpoint covers %d transfers, schedule has %d (missing Remap?)",
			len(cp.Executed), len(s.ops))
	}
	if len(cp.FreeAt) != len(res) {
		return nil, nil, fmt.Errorf("collective: checkpoint has %d channel horizons for %d channels",
			len(cp.FreeAt), len(res))
	}

	// Only the remaining transfers must ride healthy channels; the executed
	// prefix may sit on a link that has since died — that is the whole point
	// of resuming. fill checks exactly those.
	r, _, next, err := s.execute(ctx, res, cp, false)
	return r, next, err
}
