package collective

import (
	"sort"

	"ccube/internal/des"
	"ccube/internal/metrics"
	"ccube/internal/topology"
)

// Collective-layer instruments. Per-channel series are labeled by the
// channel's des.Resource name so they line up with trace lanes.
var (
	mCacheHits = metrics.Default.Counter("collective_cache_hits_total",
		"schedule cache lookups served from memory")
	mCacheMisses = metrics.Default.Counter("collective_cache_misses_total",
		"schedule cache lookups that built and verified a schedule")
	mCacheEvictions = metrics.Default.Counter("collective_cache_evictions_total",
		"schedules dropped by the cache's LRU capacity bound")
	mCacheIncremental = metrics.Default.Counter("collective_cache_incremental_total",
		"cache misses served by incrementally patching a same-shape cached schedule instead of a full rebuild")
	mExecutions = metrics.Default.Counter("collective_executions_total",
		"timed schedule executions")
	mBytesMoved = metrics.Default.Counter("collective_bytes_moved_total",
		"bytes carried over channels by executed schedules (detour hops recounted per hop)")
	mDetourShare = metrics.Default.Gauge("collective_detour_traffic_share",
		"fraction of moved bytes that touched a relay slot (detour routing) in the last execution")
	mOverlapEfficiency = metrics.Default.Gauge("collective_overlap_efficiency",
		"fraction of the last execution's reduction window with broadcast traffic in flight (C1)")
	mChannelBytes = metrics.Default.CounterVec("collective_channel_bytes_total",
		"bytes moved per channel", "channel")
	mChannelUtilization = metrics.Default.GaugeVec("collective_channel_utilization",
		"per-channel busy fraction of the last execution's makespan", "channel")
	mChannelAchievedBW = metrics.Default.GaugeVec("collective_channel_achieved_bw_bytes_per_s",
		"per-channel achieved bandwidth (bytes moved / busy time) in the last execution", "channel")
	mChannelNominalBW = metrics.Default.GaugeVec("collective_channel_nominal_bw_bytes_per_s",
		"per-channel nominal (healthy) bandwidth", "channel")
	mChannelEffectiveBW = metrics.Default.GaugeVec("collective_channel_effective_bw_bytes_per_s",
		"per-channel effective bandwidth after degradation", "channel")
)

// reductionTransfers classifies each transfer as reduction-side or not.
// Accumulating transfers are the reduction's last hops; a detour chain
// feeding one is reduction work too, so the flag propagates backwards
// through relay slots. Construction is topological (a relay slot's owner
// precedes its reader), so one descending pass settles every chain.
func (s *Schedule) reductionTransfers() []bool {
	red := make([]bool, len(s.ops))
	for i := len(s.ops) - 1; i >= 0; i-- {
		op := &s.ops[i]
		if op.Marker() {
			continue
		}
		if op.Accumulate {
			red[i] = true
		}
		if red[i] && op.Src.Relay >= 0 {
			red[op.Src.Relay] = true
		}
	}
	return red
}

// OverlapEfficiency measures the paper's C1 claim on an executed schedule:
// the fraction of the reduction window — [first reduction-transfer start,
// last reduction-transfer end] — during which at least one broadcast
// transfer occupies a channel. The baseline double tree broadcasts only
// after the reduction barrier, scoring ~0; the overlapped variants push
// broadcast hops under the reduction and score well above it.
func (s *Schedule) OverlapEfficiency(g *des.Graph, taskIDs []int) float64 {
	red := s.reductionTransfers()
	var wStart, wEnd des.Time
	haveWindow := false
	for i := range s.ops {
		if s.ops[i].Marker() || !red[i] {
			continue
		}
		task := g.Task(taskIDs[i])
		if !haveWindow || task.Start < wStart {
			wStart = task.Start
		}
		if !haveWindow || task.End > wEnd {
			wEnd = task.End
		}
		haveWindow = true
	}
	if !haveWindow || wEnd <= wStart {
		return 0
	}
	// Collect broadcast-side occupancy clipped to the window and measure
	// the union of the intervals.
	var spans []des.Interval
	for i := range s.ops {
		if s.ops[i].Marker() || red[i] {
			continue
		}
		task := g.Task(taskIDs[i])
		lo, hi := task.Start, task.End
		if lo < wStart {
			lo = wStart
		}
		if hi > wEnd {
			hi = wEnd
		}
		if hi > lo {
			spans = append(spans, des.Interval{Start: lo, End: hi})
		}
	}
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var covered des.Time
	cur := spans[0]
	for _, iv := range spans[1:] {
		if iv.Start <= cur.End {
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		covered += cur.End - cur.Start
		cur = iv
	}
	covered += cur.End - cur.Start
	return float64(covered) / float64(wEnd-wStart)
}

// publishExecutionMetrics records one execution's channel traffic, bandwidth
// achievement, detour share, and overlap efficiency. Called from ExecuteOnCtx
// only when collection is enabled: the aggregation allocates and must stay
// off the disabled path.
func (s *Schedule) publishExecutionMetrics(res []*des.Resource, g *des.Graph, taskIDs []int, total des.Time) {
	mExecutions.Inc()

	chBytes := make([]int64, len(res))
	var totalBytes, detourBytes int64
	for i := range s.ops {
		op := &s.ops[i]
		if op.Marker() {
			continue
		}
		chBytes[op.Channel] += op.Bytes
		totalBytes += op.Bytes
		if op.Src.Relay >= 0 || op.Dst.Relay >= 0 {
			detourBytes += op.Bytes
		}
	}
	mBytesMoved.Add(totalBytes)
	if totalBytes > 0 {
		mDetourShare.Set(float64(detourBytes) / float64(totalBytes))
	}

	for i, r := range res {
		if chBytes[i] == 0 {
			continue
		}
		ch := s.Graph.Channel(topology.ChannelID(i))
		name := ch.ResourceName()
		mChannelBytes.With(name).Add(chBytes[i])
		mChannelNominalBW.With(name).Set(ch.Bandwidth)
		mChannelEffectiveBW.With(name).Set(ch.EffectiveBandwidth())
		if total > 0 {
			mChannelUtilization.With(name).Set(r.Utilization(total))
		}
		if busy := r.BusyTime(); busy > 0 {
			mChannelAchievedBW.With(name).Set(float64(chBytes[i]) / busy.Seconds())
		}
	}

	mOverlapEfficiency.Set(s.OverlapEfficiency(g, taskIDs))
}
