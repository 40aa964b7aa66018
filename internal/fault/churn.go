package fault

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// ChurnConfig drives a sustained failure/recovery churn sweep: every epoch
// injects fresh seeded timed link failures while the collective is in
// flight, runs the configured fault-response mode, and recovers the fabric
// before the next epoch.
type ChurnConfig struct {
	Collective collective.Config
	// Seed derives each epoch's failure plan; the same config always
	// produces the same churn trace.
	Seed int64
	// Epochs is the number of failure/recovery rounds (default 4).
	Epochs int
	// FailLinks is how many physical links die per epoch.
	FailLinks int
	// RepairLatency is the modeled wall-clock cost of one control-plane
	// reconfiguration (detect + repair + redeploy). Every adaptation and
	// every relaunch pays it once; it is what separates the modes at high
	// fail rates — relaunches additionally forfeit the aborted attempt's
	// virtual time.
	RepairLatency des.Time
	// Mode is the fault response under test.
	Mode Mode
	// UsedLinksOnly draws each epoch's failures only from the physical links
	// the healthy schedule actually rides. On large fabrics (scale-out
	// meshes) a schedule touches a few percent of the links, so unrestricted
	// sampling yields mostly fault-free epochs; restricting the pool makes
	// every epoch exercise the fault response.
	UsedLinksOnly bool
}

// EpochStat summarizes one churn epoch.
type EpochStat struct {
	Epoch       int
	FaultEvents int
	Adapted     int
	Retries     int
	Fallbacks   int
	// Total is the collective's completion time on its virtual clock;
	// LostTime is virtual time discarded by relaunches. EffectiveTime adds
	// LostTime and the modeled repair latency per reconfiguration — the
	// quantity the throughput floor is computed over.
	Total         des.Time
	LostTime      des.Time
	EffectiveTime des.Time
	Throughput    float64 // bytes per effective second
}

// ChurnReport aggregates a churn sweep.
type ChurnReport struct {
	Mode              Mode
	HealthyThroughput float64 // fault-free baseline, bytes/s
	Epochs            []EpochStat

	// FloorThroughput is the worst epoch's throughput — the paper-style
	// "throughput floor" a training job experiences under churn. Mean is
	// the average across epochs.
	FloorThroughput float64
	MeanThroughput  float64

	FaultEvents int
	Adapted     int
	Retries     int
	Fallbacks   int
}

// RecoveredBandwidth is the floor as a fraction of the healthy baseline.
func (r *ChurnReport) RecoveredBandwidth() float64 {
	if r.HealthyThroughput <= 0 {
		return 0
	}
	return r.FloorThroughput / r.HealthyThroughput
}

// RunChurnCtx runs the churn sweep: per epoch, a seeded set of physical
// links dies at seeded virtual times inside the healthy makespan, the
// collective runs under the configured mode, and the fabric then recovers
// to its exact pre-churn health (snapshot restore). An epoch that leaves
// the fabric fingerprint altered — a revert that lost a stacked degrade,
// say — fails the sweep: exact recovery is part of the contract under test.
func RunChurnCtx(ctx context.Context, cfg ChurnConfig) (*ChurnReport, error) {
	g := cfg.Collective.Graph
	if g == nil {
		return nil, fmt.Errorf("fault: churn config has no topology graph")
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 4
	}
	bytes := cfg.Collective.Bytes
	snap := g.SnapshotHealth()
	healthyFP := g.Fingerprint()

	healthy, _, err := runCollective(ctx, cfg.Collective, nil, cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("fault: churn healthy baseline: %w", err)
	}
	report := &ChurnReport{
		Mode:              cfg.Mode,
		HealthyThroughput: throughput(bytes, healthy.Total),
	}
	// Failures land while the collective is in flight: kill times are drawn
	// inside the healthy makespan.
	window := healthy.Total

	var used []topology.ChannelID
	if cfg.UsedLinksOnly {
		s, err := collective.BuildCached(cfg.Collective)
		if err != nil {
			return nil, fmt.Errorf("fault: churn used-link scan: %w", err)
		}
		p := s.Program()
		seen := make(map[topology.ChannelID]bool)
		for i := range p.Ops {
			if ch := p.Ops[i].ChannelID(); !p.Ops[i].Marker() && !seen[ch] {
				seen[ch] = true
				used = append(used, ch)
			}
		}
	}

	for e := 0; e < epochs; e++ {
		epochSeed := cfg.Seed + int64(e)*1004659
		var plan *Plan
		if cfg.UsedLinksOnly {
			plan = RandomTimedLinkFailuresAmong(g, epochSeed, cfg.FailLinks, window, used)
		} else {
			plan = RandomTimedLinkFailures(g, epochSeed, cfg.FailLinks, window)
		}
		res, run, err := runCollective(ctx, cfg.Collective, plan, cfg.Mode)
		if err != nil {
			return nil, fmt.Errorf("fault: churn epoch %d (%s): %w", e, cfg.Mode, err)
		}
		reconfigs := run.Adapted + run.Retries
		eff := res.Total + run.LostTime + des.Time(reconfigs)*cfg.RepairLatency
		if eff < 1 {
			eff = 1
		}
		st := EpochStat{
			Epoch:         e,
			FaultEvents:   run.FaultEvents,
			Adapted:       run.Adapted,
			Retries:       run.Retries,
			Fallbacks:     run.AdaptFallbacks,
			Total:         res.Total,
			LostTime:      run.LostTime,
			EffectiveTime: eff,
			Throughput:    throughput(bytes, eff),
		}
		report.Epochs = append(report.Epochs, st)
		report.FaultEvents += st.FaultEvents
		report.Adapted += st.Adapted
		report.Retries += st.Retries
		report.Fallbacks += st.Fallbacks

		// Recovery. The run's own deferred reverts must already have put
		// every kill and degrade back exactly; verify before restoring.
		if fp := g.Fingerprint(); fp != healthyFP {
			return nil, fmt.Errorf("fault: churn epoch %d left the fabric altered (fingerprint %x, want %x)", e, fp, healthyFP)
		}
		g.RestoreHealth(snap)
	}

	for i, st := range report.Epochs {
		if i == 0 || st.Throughput < report.FloorThroughput {
			report.FloorThroughput = st.Throughput
		}
		report.MeanThroughput += st.Throughput
	}
	report.MeanThroughput /= float64(len(report.Epochs))
	return report, nil
}

func throughput(bytes int64, t des.Time) float64 {
	if t <= 0 {
		return 0
	}
	return float64(bytes) / t.Seconds()
}
