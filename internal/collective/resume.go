package collective

import (
	"context"
	"errors"
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
	r, _, cp, err := s.execute(ctx, res)
	return r, cp, err
}

// checkpointFrom reads the executed prefix out of an aborted graph run.
// taskIDs[i] is the graph task embedding transfer i; at is the virtual time
// the run reached (the makespan of the executed prefix).
func (s *Schedule) checkpointFrom(g *des.Graph, taskIDs []int, res []*des.Resource, at des.Time) *Checkpoint {
	cp := &Checkpoint{
		At:       at,
		Executed: make([]bool, len(s.ops)),
		End:      make([]des.Time, len(s.ops)),
		FreeAt:   make([]des.Time, len(res)),
	}
	for i, id := range taskIDs {
		if id >= 0 && g.Done(id) {
			cp.Executed[i] = true
			cp.End[i] = g.End(id)
			cp.NumExecuted++
		}
	}
	for c, r := range res {
		cp.FreeAt[c] = r.FreeAt()
	}
	return cp
}

// ResumeOnCtx continues a checkpointed run: only unexecuted transfers are
// instantiated; a dependency on an executed transfer becomes an
// earliest-start bound at its recorded completion time; and every channel
// still carrying work gets a blocker task occupying it until the
// checkpoint's FreeAt horizon, so the virtual clock — and with it every
// resumed timestamp — stays absolute. The caller provides fresh resources
// (re-armed with the fault plan's remaining breakpoints at their original
// absolute times).
//
// On success the Result merges executed and resumed completion times, so
// Total is directly comparable with an uninterrupted run of the same
// schedule. A further resource fault returns a merged Checkpoint covering
// both the old prefix and the newly executed transfers, enabling chained
// adaptation under sustained churn.
func (s *Schedule) ResumeOnCtx(ctx context.Context, cp *Checkpoint, res []*des.Resource) (*Result, *Checkpoint, error) {
	if cp == nil {
		return nil, nil, fmt.Errorf("collective: resume without a checkpoint")
	}
	if len(cp.Executed) != len(s.ops) || len(cp.End) != len(s.ops) {
		return nil, nil, fmt.Errorf("collective: checkpoint covers %d transfers, schedule has %d (missing Remap?)",
			len(cp.Executed), len(s.ops))
	}
	if len(res) != s.Graph.NumChannels() || len(cp.FreeAt) != len(res) {
		return nil, nil, fmt.Errorf("collective: %d resources / %d channel horizons for %d channels",
			len(res), len(cp.FreeAt), s.Graph.NumChannels())
	}
	if s.builtFor != 0 {
		if fp := s.Graph.Fingerprint(); fp != s.builtFor {
			return nil, nil, &StaleScheduleError{Built: s.builtFor, Current: fp}
		}
	}

	// Only the remaining transfers must ride healthy channels; the executed
	// prefix may sit on a link that has since died — that is the whole point
	// of resuming.
	usedCh := make([]bool, len(res))
	for i := range s.ops {
		op := &s.ops[i]
		if cp.Executed[i] || op.Marker() {
			continue
		}
		ch := s.Graph.Channel(op.Channel)
		if ch.Down() {
			return nil, nil, &DeadChannelError{Transfer: i, Label: s.Label(i), Channel: op.Channel,
				From: ch.From, To: ch.To}
		}
		usedCh[op.Channel] = true
	}

	g := des.NewGraph()
	for c := range res {
		if usedCh[c] && cp.FreeAt[c] > 0 {
			// Occupy [0, FreeAt): work granted before the abort still holds
			// the channel; resumed transfers queue behind it exactly as they
			// would have in the uninterrupted run.
			g.Add("resume/carryover", res[c], cp.FreeAt[c])
		}
	}
	ids := make([]int, len(s.ops))
	var deps []int
	for i := range s.ops {
		op := &s.ops[i]
		ids[i] = -1
		if cp.Executed[i] {
			continue
		}
		var r *des.Resource
		var d des.Time
		if !op.Marker() {
			ch := s.Graph.Channel(op.Channel)
			r = res[op.Channel]
			d = ch.TransferTime(op.Bytes)
			if op.NoAlpha {
				d -= ch.Latency
			}
		}
		deps = deps[:0]
		var earliest des.Time
		for _, dep := range op.Deps {
			if cp.Executed[dep] {
				if cp.End[dep] > earliest {
					earliest = cp.End[dep]
				}
			} else {
				deps = append(deps, ids[dep])
			}
		}
		ids[i] = g.Add(op.Kind(), r, d, deps...)
		if earliest > 0 {
			g.SetEarliest(ids[i], earliest)
		}
	}

	total, err := g.RunCtx(ctx)
	if err != nil {
		var fe *des.FaultError
		if errors.As(err, &fe) {
			return nil, s.mergeCheckpoint(cp, g, ids, res, total), fmt.Errorf("collective: resumed execution aborted: %w", err)
		}
		var ce *des.CanceledError
		if errors.As(err, &ce) {
			return nil, nil, fmt.Errorf("collective: resumed execution canceled: %w", err)
		}
		return nil, nil, fmt.Errorf("collective: resumed execution aborted: %w", err)
	}

	end := func(i int) des.Time {
		if cp.Executed[i] {
			return cp.End[i]
		}
		return g.End(ids[i])
	}
	if total < cp.At {
		total = cp.At
	}
	for i := range s.ops {
		if cp.Executed[i] && cp.End[i] > total {
			total = cp.End[i]
		}
	}

	idx := s.nodeIndex()
	k := s.Partition.NumChunks()
	ready := make([][]des.Time, len(s.Nodes))
	seen := make([][]bool, len(s.Nodes))
	for i := range ready {
		ready[i] = make([]des.Time, k)
		seen[i] = make([]bool, k)
	}
	for i := range s.ops {
		op := &s.ops[i]
		if op.Final < 0 {
			continue
		}
		ni := idx.of(op.Final)
		if ni < 0 {
			return nil, nil, fmt.Errorf("collective: final node %d not a participant", op.Final)
		}
		// Last final wins, matching Instantiate's overwrite semantics.
		ready[ni][op.Chunk] = end(i)
		seen[ni][op.Chunk] = true
	}
	done := make([]des.Time, k)
	for c := 0; c < k; c++ {
		for i := range ready {
			if !seen[i][c] {
				return nil, nil, fmt.Errorf("collective: chunk %d never becomes ready at node %v", c, s.Nodes[i])
			}
			if ready[i][c] > done[c] {
				done[c] = ready[i][c]
			}
		}
	}
	for _, r := range res {
		if err := r.ValidateSerialized(); err != nil {
			return nil, nil, err
		}
	}
	return &Result{
		Total:      total,
		ChunkReady: ready,
		ChunkDone:  done,
		Turnaround: done[0],
		Resources:  res,
		Partition:  s.Partition,
		InOrder:    s.InOrder,
	}, nil, nil
}

// mergeCheckpoint folds a resumed run's newly executed transfers into the
// checkpoint it started from, producing the checkpoint for the next round
// of adaptation.
func (s *Schedule) mergeCheckpoint(cp *Checkpoint, g *des.Graph, ids []int, res []*des.Resource, at des.Time) *Checkpoint {
	out := &Checkpoint{
		At:       at,
		Executed: append([]bool(nil), cp.Executed...),
		End:      append([]des.Time(nil), cp.End...),
		FreeAt:   make([]des.Time, len(res)),
	}
	if out.At < cp.At {
		out.At = cp.At
	}
	for i := range s.ops {
		if !out.Executed[i] && ids[i] >= 0 && g.Done(ids[i]) {
			out.Executed[i] = true
			out.End[i] = g.End(ids[i])
		}
	}
	for i := range out.Executed {
		if out.Executed[i] {
			out.NumExecuted++
		}
	}
	for c, r := range res {
		f := r.FreeAt()
		if f < cp.FreeAt[c] {
			f = cp.FreeAt[c]
		}
		out.FreeAt[c] = f
	}
	return out
}
