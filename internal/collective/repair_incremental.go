package collective

import (
	"fmt"
	"sort"

	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// PatchOptions tunes RepairScheduleIncremental.
type PatchOptions struct {
	// Skip marks transfers (by id in the input schedule) that must be left
	// untouched even when they ride a patched channel — live adaptation
	// passes the checkpoint's executed set here: a transfer that already ran
	// before the link died needs no reroute, and rerouting it would falsify
	// the recorded timing.
	Skip []bool
}

// PatchReport summarizes what RepairScheduleIncremental changed, in terms
// the delta verifier (schedcheck.CheckPatch) and checkpoint remapping
// consume directly.
type PatchReport struct {
	// DeadChannels are the down channels that were patched around, id order.
	DeadChannels []topology.ChannelID
	// Rerouted counts transfers moved off their original channel.
	Rerouted int
	// Rebalanced counts rerouted transfers that were spread across two or
	// more surviving parallel channels by the load balancer (rather than all
	// dumped on one replacement).
	Rebalanced int
	// AddedHops counts forwarding transfers appended for multi-hop detours.
	AddedHops int
	// Routes describes each repair, for diagnostics.
	Routes []string
	// OldToNew maps every input-schedule transfer id to its id in the
	// patched schedule (renumbering moves ids; nothing is ever deleted).
	OldToNew []int
	// Touched lists the patched-schedule ids of modified and added
	// transfers, ascending. Everything not listed is identical to its base
	// transfer modulo renumbering.
	Touched []int
}

// RepairScheduleIncremental patches a verified schedule around the given
// channels without rebuilding it: only transfers riding those channels are
// rewritten; the rest of the schedule — typically all but a few of thousands
// of transfers at scale-out sizes — survives bit-identical modulo
// renumbering. It is the live-adaptation counterpart of RepairSchedule,
// which re-verifies the whole schedule from scratch.
//
// Per patched channel:
//   - down, with healthy parallel channels between the same endpoints: the
//     stranded transfers are spread across the survivors, each assigned
//     greedily to the channel that finishes it earliest under the load
//     already placed there (bytes weighted by effective bandwidth) — the
//     load-rebalancing that recovers most of the lost bandwidth instead of
//     serializing everything behind one replacement;
//   - down, no parallel survivor: the shared detour of RepairSchedule
//     (§IV-A forwarding through one intermediate GPU), spliced per transfer;
//   - degraded but alive: its transfers are rebalanced across the healthy
//     parallel channels including itself, shifting load toward the faster
//     links.
//
// The patch is delta-verified against s (verifyPatch) and stamped against
// the current topology before it is returned, so an unverified patch never
// escapes. When a stranded transfer has no healthy replacement route the
// repair fails with *UnrepairableError, and a patch that fails verification
// returns an error too; either way the caller falls back to full repair +
// relaunch.
func RepairScheduleIncremental(s *Schedule, channels []topology.ChannelID, opts *PatchOptions) (*Schedule, *PatchReport, error) {
	rep := &PatchReport{}
	out := s.clone()
	oldN := len(out.transfers)

	var skip []bool
	if opts != nil && opts.Skip != nil {
		if len(opts.Skip) != oldN {
			return nil, nil, fmt.Errorf("collective: skip set covers %d of %d transfers", len(opts.Skip), oldN)
		}
		skip = opts.Skip
	}

	targetSet := make(map[topology.ChannelID]bool, len(channels))
	var targets []topology.ChannelID
	for _, cid := range channels {
		if cid < 0 || int(cid) >= out.Graph.NumChannels() {
			return nil, nil, fmt.Errorf("collective: patch channel %d does not exist", cid)
		}
		if !targetSet[cid] {
			targetSet[cid] = true
			targets = append(targets, cid)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	byChannel := make(map[topology.ChannelID][]*transfer)
	for _, t := range out.transfers {
		if t.isMarker() || (skip != nil && skip[t.id]) {
			continue
		}
		if targetSet[t.channel] {
			byChannel[t.channel] = append(byChannel[t.channel], t)
		}
	}

	// The detour router is built lazily: the common case (a parallel channel
	// survives) never needs it.
	var router *topology.Router
	getRouter := func() *topology.Router {
		if router == nil {
			router = topology.NewRouter(out.Graph)
			for _, t := range out.transfers {
				if t.isMarker() || out.Graph.Channel(t.channel).Down() {
					continue
				}
				if !router.Claimed(t.channel) {
					router.Claim(t.channel)
				}
			}
		}
		return router
	}

	touched := make(map[int]bool)
	for _, cid := range targets {
		stranded := byChannel[cid]
		if len(stranded) == 0 {
			continue
		}
		ch := out.Graph.Channel(cid)
		var sibs []topology.ChannelID
		for _, sc := range out.Graph.ChannelsBetween(ch.From, ch.To) {
			if sc != cid && !out.Graph.Channel(sc).Down() {
				sibs = append(sibs, sc)
			}
		}
		switch {
		case ch.Down() && len(sibs) > 0:
			rep.DeadChannels = append(rep.DeadChannels, cid)
			moved := out.rebalance(stranded, sibs, touched)
			rep.Rerouted += moved
			if len(sibs) > 1 {
				rep.Rebalanced += moved
			}
			rep.Routes = append(rep.Routes, fmt.Sprintf("ch%d %s->%s -> %d transfers rebalanced across %d parallel channels",
				cid, out.Graph.Node(ch.From).Name, out.Graph.Node(ch.To).Name, moved, len(sibs)))
		case ch.Down():
			rt, err := replacementRoute(out.Graph, getRouter(), ch.From, ch.To)
			if err != nil {
				return nil, nil, &UnrepairableError{Channel: cid, From: ch.From, To: ch.To, Reason: err.Error()}
			}
			rep.DeadChannels = append(rep.DeadChannels, cid)
			rep.Routes = append(rep.Routes, describeRoute(out.Graph, cid, rt))
			for _, t := range stranded {
				rep.Rerouted++
				touched[t.id] = true
				if rt.Direct() {
					t.channel = rt.Channels[0]
					continue
				}
				rep.AddedHops += rt.Hops() - 1
				out.splice(t, rt)
			}
		default:
			// Degraded but alive: shift load across the parallel group,
			// including the degraded channel itself at its reduced bandwidth.
			if len(sibs) == 0 {
				continue
			}
			group := append([]topology.ChannelID{cid}, sibs...)
			moved := out.rebalance(stranded, group, touched)
			rep.Rerouted += moved
			rep.Rebalanced += moved
			rep.Routes = append(rep.Routes, fmt.Sprintf("ch%d degraded x%.2g -> %d transfers rebalanced across %d parallel channels",
				cid, ch.DegradeFactor(), moved, len(group)))
		}
	}

	newID, err := out.normalizeMap()
	if err != nil {
		return nil, nil, fmt.Errorf("collective: patch produced an unorderable schedule: %w", err)
	}
	rep.OldToNew = append([]int(nil), newID[:oldN]...)
	for old := range touched {
		rep.Touched = append(rep.Touched, newID[old])
	}
	for old := oldN; old < len(newID); old++ {
		rep.Touched = append(rep.Touched, newID[old])
	}
	sort.Ints(rep.Touched)
	if err := out.validateStructure(); err != nil {
		return nil, nil, fmt.Errorf("collective: patched schedule failed structural validation: %w", err)
	}
	if err := verifyPatch(s, out, rep); err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// rebalance assigns each stranded transfer (id order) to the channel in
// group that would finish it earliest: per-channel load is seeded with the
// traffic the rest of the schedule already places there, and each
// assignment adds bytes/effective-bandwidth. Deterministic: ties go to the
// earliest group position. Returns how many transfers changed channel.
func (s *Schedule) rebalance(stranded []*transfer, group []topology.ChannelID, touched map[int]bool) int {
	inStranded := make(map[int]bool, len(stranded))
	for _, t := range stranded {
		inStranded[t.id] = true
	}
	idx := make(map[topology.ChannelID]int, len(group))
	load := make([]float64, len(group))
	for k, cid := range group {
		idx[cid] = k
	}
	for _, t := range s.transfers {
		if t.isMarker() || inStranded[t.id] {
			continue
		}
		if k, ok := idx[t.channel]; ok {
			load[k] += float64(t.bytes) / s.Graph.Channel(t.channel).EffectiveBandwidth()
		}
	}
	moved := 0
	for _, t := range stranded {
		best, bestCost := -1, 0.0
		for k, cid := range group {
			cost := load[k] + float64(t.bytes)/s.Graph.Channel(cid).EffectiveBandwidth()
			if best < 0 || cost < bestCost {
				best, bestCost = k, cost
			}
		}
		load[best] = bestCost
		if group[best] != t.channel {
			t.channel = group[best]
			touched[t.id] = true
			moved++
		}
	}
	return moved
}

// verifyPatch is the execution gate for incrementally repaired schedules:
// it runs schedcheck.CheckPatch — delta verification of the patched
// schedule against the verified base it came from — and stamps the patched
// schedule against the current topology on success.
func verifyPatch(base, patched *Schedule, rep *PatchReport) error {
	if rep == nil {
		return fmt.Errorf("collective: patch verification requires the PatchReport from RepairScheduleIncremental")
	}
	r := schedcheck.CheckPatch(patched.Program(), &schedcheck.PatchSpec{
		Base:     base.Program(),
		OldToNew: rep.OldToNew,
		Touched:  rep.Touched,
	})
	if err := r.Err(); err != nil {
		return fmt.Errorf("collective: patched schedule failed delta verification: %w", err)
	}
	patched.stamp()
	return nil
}
