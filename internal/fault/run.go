package fault

import (
	"context"
	"errors"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// Mode selects the response to a link dying mid-run.
type Mode int

const (
	// ModeRelaunch discards all in-flight progress on a mid-run death:
	// promote the channel to statically dead, repair the whole schedule,
	// relaunch from virtual time zero. This is the paper's static detour
	// model applied wholesale.
	ModeRelaunch Mode = iota
	// ModeAdapt keeps the progress: checkpoint the executed transfers,
	// patch only the remaining subgraph around the dead channel (the same
	// collective.RepairSchedule a relaunch runs, with the executed set
	// skipped), and resume on the same virtual clock. Relaunch remains the
	// fallback when the patch is unrepairable or fails delta verification.
	ModeAdapt
)

func (m Mode) String() string {
	if m == ModeAdapt {
		return "adapt"
	}
	return "relaunch"
}

// RunReport traces one resilient collective run.
type RunReport struct {
	// Attempts counts schedule launches from virtual time zero (1 = the run
	// never relaunched). Resumes counts mid-run continuations in adapt mode;
	// they are not launches — the clock keeps running.
	Attempts int
	Resumes  int

	// Repairs holds one report per repair of the whole schedule, in order:
	// the pre-launch repair (when it rewired anything) first, then one per
	// relaunch. Patches holds one report per adopted mid-run patch (adapt
	// mode).
	Repairs []*collective.PatchReport
	Patches []*collective.PatchReport

	// MidRunDeaths lists channels that died mid-run, in failure order.
	// FaultEvents counts the distinct channels among them: a channel that
	// aborts the run once and is then patched around contributes one fault
	// event however many repair attempts and retries it costs.
	MidRunDeaths []topology.ChannelID
	FaultEvents  int

	// Retries counts launches beyond the first (relaunch path). Adapted
	// counts deaths absorbed in place by patch + resume. AdaptFallbacks
	// counts failed patches that fell back to relaunch.
	Retries        int
	Adapted        int
	AdaptFallbacks int

	// LostTime sums the virtual time of aborted attempts that relaunched
	// from zero — the progress a patch-and-resume would have kept. Adapt
	// mode accrues LostTime only on fallbacks.
	LostTime des.Time
}

// Rerouted sums rerouted transfers across all repairs and adopted patches.
func (r *RunReport) Rerouted() int {
	n := 0
	for _, rep := range r.Repairs {
		n += rep.Rerouted
	}
	for _, rep := range r.Patches {
		n += rep.Rerouted
	}
	return n
}

// RunCollectiveCtx builds the configured collective on the healthy fabric,
// then runs it under the fault plan: static faults are injected, the
// schedule is repaired around every dead link (collective.RepairSchedule:
// detour mechanism, §IV-A, delta-verified), and the run executes with timed
// faults armed. A link that dies mid-run aborts the attempt with a
// structured fault; the run then promotes the channel to statically dead,
// repairs again, and relaunches (ModeRelaunch) — bounded by the number of
// timed link deaths, so an unrepairable fabric always surfaces as an error,
// never a hang.
//
// A cancellation surfaces as a wrapped *des.CanceledError: it is not a
// *des.FaultError, so the relaunch loop returns it directly instead of
// attempting a repair. The graph's health state is restored before
// returning. RunChurnCtx selects the other fault response, ModeAdapt,
// through ChurnConfig.Mode.
func RunCollectiveCtx(ctx context.Context, cfg collective.Config, plan *Plan) (*collective.Result, *RunReport, error) {
	return runCollective(ctx, cfg, plan, ModeRelaunch)
}

// runCollective is RunCollectiveCtx with an explicit fault-response mode. In
// ModeAdapt a mid-run link death is absorbed in place: the executed prefix
// is checkpointed (des fault machinery), the remaining transfers are patched
// around the dead channel and delta-verified, and the run resumes on the
// same virtual clock — so Result.Total includes the time before the fault,
// directly comparable to an uninterrupted run. When the patch cannot be
// built or verified, the run falls back to the relaunch path and the
// discarded progress is accounted in RunReport.LostTime.
func runCollective(ctx context.Context, cfg collective.Config, plan *Plan, mode Mode) (*collective.Result, *RunReport, error) {
	g := cfg.Graph
	if err := plan.Validate(g); err != nil {
		return nil, nil, err
	}
	report := &RunReport{}

	// The schedule is built against the healthy fabric — it is the schedule
	// that was deployed before the faults hit. The cached build means the
	// repair-relaunch loop and fault sweeps pay the healthy build + verify
	// once per topology, not once per injected fault.
	s, err := collective.BuildCached(cfg)
	if err != nil {
		return nil, nil, err
	}

	revert := plan.Apply(g)
	defer revert()
	// Promotions capture the channel's pre-death health and put exactly that
	// back — a timed kill on a statically degraded channel must not restore
	// it to full bandwidth.
	type promotion struct {
		id topology.ChannelID
		h  topology.ChannelHealth
	}
	var promoted []promotion
	defer func() {
		for i := len(promoted) - 1; i >= 0; i-- {
			g.SetHealth(promoted[i].id, promoted[i].h)
		}
	}()
	promote := func(id topology.ChannelID) {
		if g.Channel(id).Down() {
			return
		}
		promoted = append(promoted, promotion{id: id, h: g.Health(id)})
		g.KillChannel(id)
	}

	cur, rep, err := collective.RepairSchedule(s, g.DownChannels(), nil)
	if err != nil {
		return nil, report, err
	}
	if rep.Rerouted > 0 {
		report.Repairs = append(report.Repairs, rep)
		mRepairAttempts.Inc()
		mRepairs.Inc()
		mRerouted.Add(int64(rep.Rerouted))
	}

	// Each timed death can abort the run at most once (after promotion the
	// patched/repaired schedule avoids the channel), so the death budget —
	// not an attempt count — bounds the loop: an unrepairable fabric always
	// surfaces as an error, never a hang.
	maxDeaths := len(plan.TimedDeaths())
	seenDeath := make(map[topology.ChannelID]bool)
	deaths := 0
	var cp *collective.Checkpoint
	for {
		res := g.Resources()
		plan.ApplyToResources(g, res)
		var result *collective.Result
		var next *collective.Checkpoint
		var rerr error
		if cp != nil {
			report.Resumes++
			result, next, rerr = cur.ResumeOnCtx(ctx, cp, res)
		} else {
			report.Attempts++
			if report.Attempts > 1 {
				report.Retries++
				mRetries.Inc()
			}
			mLaunchAttempts.Inc()
			result, next, rerr = cur.ExecuteCheckpointCtx(ctx, res)
		}
		if rerr == nil {
			return result, report, nil
		}
		var fe *des.FaultError
		if !errors.As(rerr, &fe) {
			return nil, report, rerr
		}
		deaths++
		if deaths > maxDeaths || next == nil {
			return nil, report, rerr
		}
		died, ok := channelOfResource(res, fe.Faults[0].Resource)
		if !ok {
			return nil, report, fmt.Errorf("fault: cannot locate failed resource %q: %w", fe.Faults[0].Resource, rerr)
		}
		report.MidRunDeaths = append(report.MidRunDeaths, died)
		mMidRunDeaths.Inc()
		if !seenDeath[died] {
			seenDeath[died] = true
			report.FaultEvents++
			mFaultEvents.Inc()
		}
		promote(died)

		if mode == ModeAdapt {
			mRepairAttempts.Inc()
			patched, prep, perr := collective.RepairSchedule(cur, g.DownChannels(), next.Executed)
			if perr == nil {
				report.Adapted++
				mAdapted.Inc()
				report.Patches = append(report.Patches, prep)
				mRepairs.Inc()
				mRerouted.Add(int64(prep.Rerouted))
				cp = next.Remap(prep.OldToNew, patched.NumTransfers())
				cur = patched
				continue
			}
			// The patch could not be built (Unrepairable) or failed delta
			// verification: discard the progress and relaunch below.
			report.AdaptFallbacks++
			mAdaptFallbacks.Inc()
		}

		// Relaunch path: the aborted attempt's virtual time is lost.
		report.LostTime += next.At
		cp = nil
		mRepairAttempts.Inc()
		nextSched, rep, rerr2 := collective.RepairSchedule(cur, g.DownChannels(), nil)
		if rerr2 != nil {
			return nil, report, rerr2
		}
		report.Repairs = append(report.Repairs, rep)
		if rep.Rerouted > 0 {
			mRepairs.Inc()
			mRerouted.Add(int64(rep.Rerouted))
		}
		cur = nextSched
	}
}

// channelOfResource maps a des resource name back to its channel id (index
// = ChannelID by the Resources contract).
func channelOfResource(res []*des.Resource, name string) (topology.ChannelID, bool) {
	for i, r := range res {
		if r.Name == name {
			return topology.ChannelID(i), true
		}
	}
	return -1, false
}
