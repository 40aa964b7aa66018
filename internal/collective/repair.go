package collective

import (
	"fmt"
	"slices"
	"sort"

	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// DeadChannelError reports a transfer scheduled over a channel that has
// failed. Running or instantiating the schedule returns it instead of
// timing traffic over a dead link; callers react with RepairSchedule.
type DeadChannelError struct {
	Transfer int
	Label    string
	Channel  topology.ChannelID
	From, To topology.NodeID
}

func (e *DeadChannelError) Error() string {
	return fmt.Sprintf("collective: transfer %d (%s) rides dead channel %d (%d->%d); repair the schedule",
		e.Transfer, e.Label, e.Channel, e.From, e.To)
}

// UnrepairableError reports that no healthy replacement route exists for a
// transfer stranded by a dead channel. It is the structured "fail loudly"
// outcome the resilience layer promises instead of a deadlock.
type UnrepairableError struct {
	Channel  topology.ChannelID
	From, To topology.NodeID
	Reason   string
}

func (e *UnrepairableError) Error() string {
	return fmt.Sprintf("collective: unrepairable: no healthy route replaces dead channel %d (%d->%d): %s",
		e.Channel, e.From, e.To, e.Reason)
}

// PatchReport summarizes what RepairSchedule changed, in terms the delta
// verifier (schedcheck.CheckPatch) and checkpoint remapping consume directly.
type PatchReport struct {
	// DeadChannels are the down channels that were patched around, id order.
	DeadChannels []topology.ChannelID
	// Rerouted counts transfers moved off their original channel.
	Rerouted int
	// Rebalanced counts rerouted transfers that were spread across two or
	// more parallel channels by the load balancer (degraded channels only).
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

// RepairSchedule patches a verified schedule around the given channels
// without rebuilding it — the paper's detour mechanism (§IV-A) as a repair.
// Only transfers riding those channels are rewritten; the rest of the
// schedule survives bit-identical modulo renumbering. The input schedule is
// not modified; one no constructor proved fails with ErrUnverified.
//
// Per patched channel:
//   - down: every stranded transfer takes the channel's one shared
//     replacement route (replacementRoute: an idle route first, then a
//     healthy parallel channel, then a forwarding chain through one
//     intermediate GPU, spliced per transfer);
//   - degraded but alive: its transfers are rebalanced across the healthy
//     parallel channels including itself, shifting load toward the faster
//     links.
//
// A static repair passes every down channel (Graph.DownChannels) and a nil
// skip. Live adaptation also passes skip, indexed by transfer id in s: the
// checkpoint's executed set. A transfer that already ran before the link
// died needs no reroute, and rerouting it would falsify the recorded timing.
//
// When nothing is stranded the schedule keeps its transfer ids and is only
// restamped. Otherwise the patch is renumbered into dependency order,
// delta-verified against s (verifyPatch) and stamped against the current
// topology before it is returned, so an unverified patch never escapes.
// When a stranded transfer has no healthy replacement route the repair fails
// with *UnrepairableError.
func RepairSchedule(s *Schedule, channels []topology.ChannelID, skip []bool) (*Schedule, *PatchReport, error) {
	if s.builtFor == 0 {
		return nil, nil, ErrUnverified // CheckPatch's delta proof needs a proved base
	}
	rep := &PatchReport{}
	out := s.clone()
	oldN := len(out.ops)
	if skip != nil && len(skip) != oldN {
		return nil, nil, fmt.Errorf("collective: skip set covers %d of %d transfers", len(skip), oldN)
	}
	skipped := func(id int) bool { return out.ops[id].Marker() || (skip != nil && skip[id]) }

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

	byChannel := make(map[topology.ChannelID][]int)
	for id := range out.ops {
		if ch := out.ops[id].ChannelID(); !skipped(id) && targetSet[ch] {
			byChannel[ch] = append(byChannel[ch], id)
		}
	}

	// The detour router is seeded with every channel the surviving schedule
	// still uses, so replacement routes prefer idle links (mirroring
	// assignRoutes). It is built lazily: degraded-only patches never need it.
	var router *topology.Router
	getRouter := func() *topology.Router {
		if router == nil {
			router = topology.NewRouter(out.Graph)
			for i := range out.ops {
				op := &out.ops[i]
				if op.Marker() || out.Graph.Channel(op.ChannelID()).Down() {
					continue
				}
				if !router.Claimed(op.ChannelID()) {
					router.Claim(op.ChannelID())
				}
			}
		}
		return router
	}

	touched := make(map[int]bool)
	routeFor := make(map[topology.ChannelID]topology.Route)
	for _, cid := range targets {
		stranded := byChannel[cid]
		if len(stranded) == 0 {
			continue
		}
		ch := out.Graph.Channel(cid)
		if ch.Down() {
			rt, err := replacementRoute(out.Graph, getRouter(), ch.From, ch.To)
			if err != nil {
				return nil, nil, &UnrepairableError{Channel: cid, From: ch.From, To: ch.To, Reason: err.Error()}
			}
			routeFor[cid] = rt
			rep.DeadChannels = append(rep.DeadChannels, cid)
			rep.Routes = append(rep.Routes, describeRoute(out.Graph, cid, rt))
			continue
		}
		// Degraded but alive: shift load across the parallel group,
		// including the degraded channel itself at its reduced bandwidth.
		group := []topology.ChannelID{cid}
		for _, sc := range out.Graph.ChannelsBetween(ch.From, ch.To) {
			if sc != cid && !out.Graph.Channel(sc).Down() {
				group = append(group, sc)
			}
		}
		if len(group) == 1 {
			continue
		}
		moved := out.rebalance(stranded, group, touched)
		rep.Rerouted += moved
		rep.Rebalanced += moved
		rep.Routes = append(rep.Routes, fmt.Sprintf("ch%d degraded x%.2g -> %d transfers rebalanced across %d parallel channels",
			cid, ch.DegradeFactor(), moved, len(group)))
	}

	// Stranded transfers take their dead channel's route in id order, so
	// the forwarding hops splice appends are numbered in that order too.
	// lastHop[id] is the last forwarding hop spliced in front of transfer
	// id, its one new dependency, or -1.
	var lastHop []int32
	for id := 0; id < oldN; id++ {
		rt, ok := routeFor[out.ops[id].ChannelID()]
		if !ok || skipped(id) {
			continue
		}
		rep.Rerouted++
		touched[id] = true
		if rt.Direct() {
			out.ops[id].Channel = int32(rt.Channels[0])
			continue
		}
		rep.AddedHops += rt.Hops() - 1
		if lastHop == nil {
			lastHop = make([]int32, oldN)
			for i := range lastHop {
				lastHop[i] = -1
			}
		}
		lastHop[id] = int32(out.splice(id, rt))
	}

	if len(touched) == 0 {
		// Nothing moved: the clone is the verified input, transfer for
		// transfer, so it keeps its ids and only needs a fresh stamp.
		rep.OldToNew = make([]int, oldN)
		for i := range rep.OldToNew {
			rep.OldToNew[i] = i
		}
		out.stamp()
		return out, rep, nil
	}

	newID, err := out.renumber(lastHop)
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
	if err := verifyPatch(s, out, rep); err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// replacementRoute finds a healthy route a->b: first over idle channels via
// the transactional router, then sharing busy healthy channels (direct, then
// one-GPU detour). Claims for multi-use are intentional — the repair may
// funnel several flows over one surviving link; the des.Resource serializes
// them and timing honestly reflects the contention.
func replacementRoute(g *topology.Graph, router *topology.Router, a, b topology.NodeID) (topology.Route, error) {
	tx := router.Begin()
	rt, err := tx.Route(a, b)
	if err == nil {
		tx.Commit()
		return rt, nil
	}
	tx.Rollback()

	healthyDirect := func(x, y topology.NodeID) topology.ChannelID {
		for _, cid := range g.ChannelsBetween(x, y) {
			if !g.Channel(cid).Down() {
				return cid
			}
		}
		return -1
	}
	if cid := healthyDirect(a, b); cid >= 0 {
		return topology.Route{Channels: []topology.ChannelID{cid}}, nil
	}
	for _, mid := range g.Neighbors(a) {
		if g.Node(mid).Kind != topology.GPU || mid == b {
			continue
		}
		first := healthyDirect(a, mid)
		if first < 0 {
			continue
		}
		second := healthyDirect(mid, b)
		if second < 0 {
			continue
		}
		return topology.Route{Channels: []topology.ChannelID{first, second}}, nil
	}
	return topology.Route{}, fmt.Errorf("no healthy direct channel or single-GPU detour from %s to %s",
		g.Node(a).Name, g.Node(b).Name)
}

func describeRoute(g *topology.Graph, dead topology.ChannelID, rt topology.Route) string {
	ch := g.Channel(dead)
	if rt.Direct() {
		nc := g.Channel(rt.Channels[0])
		return fmt.Sprintf("ch%d %s->%s -> parallel ch%d (%s)", dead,
			g.Node(ch.From).Name, g.Node(ch.To).Name, nc.ID, nc.Tag)
	}
	via := rt.Via(g)
	names := make([]string, len(via))
	for i, n := range via {
		names[i] = g.Node(n).Name
	}
	return fmt.Sprintf("ch%d %s->%s -> detour via %v", dead,
		g.Node(ch.From).Name, g.Node(ch.To).Name, names)
}

// rebalance assigns each stranded transfer (ids, ascending) to the channel
// in group that would finish it earliest: per-channel load is seeded with
// the traffic the rest of the schedule already places there, and each
// assignment adds bytes/effective-bandwidth. Deterministic: ties go to the
// earliest group position. Returns how many transfers changed channel.
func (s *Schedule) rebalance(stranded []int, group []topology.ChannelID, touched map[int]bool) int {
	inStranded := make(map[int]bool, len(stranded))
	for _, id := range stranded {
		inStranded[id] = true
	}
	idx := make(map[topology.ChannelID]int, len(group))
	load := make([]float64, len(group))
	for k, cid := range group {
		idx[cid] = k
	}
	for i := range s.ops {
		op := &s.ops[i]
		if op.Marker() || inStranded[i] {
			continue
		}
		if k, ok := idx[op.ChannelID()]; ok {
			load[k] += float64(s.Partition.Sizes[op.Chunk]) / s.Graph.Channel(op.ChannelID()).EffectiveBandwidth()
		}
	}
	moved := 0
	for _, id := range stranded {
		op := &s.ops[id]
		bytes := float64(s.Partition.Sizes[op.Chunk])
		best, bestCost := -1, 0.0
		for k, cid := range group {
			cost := load[k] + bytes/s.Graph.Channel(cid).EffectiveBandwidth()
			if best < 0 || cost < bestCost {
				best, bestCost = k, cost
			}
		}
		load[best] = bestCost
		if group[best] != op.ChannelID() {
			op.Channel = int32(group[best])
			touched[id] = true
			moved++
		}
	}
	return moved
}

// verifyPatch is the execution gate for repaired schedules: it runs
// schedcheck.CheckPatch — delta verification of the patched schedule
// against the verified base it came from — and stamps the patched schedule
// against the current topology on success.
func verifyPatch(base, patched *Schedule, rep *PatchReport) error {
	if rep == nil {
		return fmt.Errorf("collective: patch verification requires the PatchReport from RepairSchedule")
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

// clone copies the schedule's op slice for editing and shares everything
// else, the dependency CSR included: a built schedule's CSR is immutable.
// The clone's CSR slices are capped at their length, so splice's appends
// reallocate them instead of writing past the end of the shared arrays. The
// clone is unstamped, with a new record for its own op graph.
func (s *Schedule) clone() *Schedule {
	out := *s
	out.ops = append([]schedcheck.Op(nil), s.ops...)
	out.depOff = s.depOff[:len(s.depOff):len(s.depOff)]
	out.deps = s.deps[:len(s.deps):len(s.deps)]
	out.builtFor = 0
	out.g = &opGraph{s: &out}
	return &out
}

// splice rewires stranded transfer id over multi-hop route rt: forwarding
// transfers for every hop but the last are appended through add (writing
// relay slots; the first takes over id's dependencies), and the transfer
// itself becomes the final hop, reading the last relay. It returns that
// last hop's id, which transfer id must now also depend on; the caller
// hands it to renumber, which restores topological id order, since the
// appended transfers carry ids after id.
func (s *Schedule) splice(id int, rt topology.Route) int {
	t := s.ops[id]
	src := t.Src
	for h := 0; h < rt.Hops()-1; h++ {
		hop := len(s.ops)
		// Forwarding never reduces; accumulation happens at the final dst.
		s.add(schedcheck.Op{Chunk: t.Chunk, Channel: int32(rt.Channels[h]),
			Src: src, Dst: schedcheck.RelayBuf(hop), Final: -1})
		if h == 0 {
			for _, d := range s.depsOf(id) {
				s.addDep(int(d))
			}
		} else {
			s.addDep(hop - 1)
		}
		src = schedcheck.RelayBuf(hop)
	}
	op := &s.ops[id]
	op.Channel = int32(rt.Channels[rt.Hops()-1])
	op.Src = src
	return int(src.Relay)
}

// renumber rewrites transfers into topological id order (dependencies
// before dependents), rewriting ids, deps, and relay-slot references into a
// fresh op slice and dependency CSR, and returns the mapping: newID[old] is
// the id transfer old was assigned. The verifier requires id order to
// respect the DAG; splice violates it by appending hops that stranded
// transfers depend on. lastHop, when non-nil, holds those
// dependencies: transfer i keeps its own and also depends on lastHop[i]
// when lastHop[i] >= 0. Each transfer's deps come out ascending.
// RepairSchedule threads the mapping into PatchReport.OldToNew so delta
// verification (schedcheck.CheckPatch) and checkpoint remapping can line
// the patched schedule up with its base.
func (s *Schedule) renumber(lastHop []int32) ([]int, error) {
	order, err := s.topoOrder(lastHop)
	if err != nil {
		return nil, err
	}
	newID := make([]int, len(s.ops))
	for pos, old := range order {
		newID[old] = pos
	}
	remap := func(b schedcheck.Buf) schedcheck.Buf {
		if b.Relay >= 0 {
			b.Relay = int32(newID[b.Relay])
		}
		return b
	}
	deps := len(s.deps)
	for _, h := range lastHop {
		if h >= 0 {
			deps++
		}
	}
	out := &Schedule{}
	out.reserve(len(s.ops), deps)
	for _, old := range order {
		op := s.ops[old]
		op.Src, op.Dst = remap(op.Src), remap(op.Dst)
		out.add(op)
		for _, d := range s.depsOf(old) {
			out.addDep(newID[d])
		}
		if old < len(lastHop) && lastHop[old] >= 0 {
			out.addDep(newID[lastHop[old]])
		}
		slices.Sort(out.deps[out.depOff[len(out.depOff)-2]:])
	}
	s.ops, s.depOff, s.deps = out.ops, out.depOff, out.deps
	s.g = &opGraph{s: s}
	return newID, nil
}
