package collective

import (
	"cmp"
	"slices"
	"sync"

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
		"cache misses served by a header over a resident same-shape op graph instead of a full rebuild")
	mCacheRetained = metrics.Default.Gauge("collective_cache_retained_bytes",
		"bytes of the op graphs (ops plus dependency CSR) the default schedule cache holds, each shared graph counted once")
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

// metricsScratch is publishExecutionMetrics' working set: per-channel byte
// counts, the reduction-side flag of every transfer and the clipped
// broadcast spans. It is pooled because ccube-serve runs with metrics on,
// and on a cluster:64 schedule these are ~1 MB per execution.
type metricsScratch struct {
	chBytes []int64
	red     []bool
	spans   []des.Interval
}

var metricsPool = sync.Pool{New: func() any { return new(metricsScratch) }}

// resized returns buf with length n and every element zero, reusing its
// backing array when it is large enough.
func resized[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// reductionTransfers sets red[i] when transfer i is reduction-side; red
// must be all false and one entry per op. Accumulating transfers are the
// reduction's last hops; a detour chain feeding one is reduction work too,
// so the flag propagates backwards through relay slots. Construction is
// topological (a relay slot's owner precedes its reader), so one descending
// pass settles every chain.
func (s *Schedule) reductionTransfers(red []bool) {
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
}

// overlapEfficiency measures the paper's C1 claim on an executed schedule:
// the fraction of the reduction window — [first reduction-transfer start,
// last reduction-transfer end] — during which at least one broadcast
// transfer occupies a channel. The baseline double tree broadcasts only
// after the reduction barrier, scoring ~0; the overlapped variants push
// broadcast hops under the reduction and score well above it. start and
// end hold each transfer's executed window, indexed by transfer id; sc
// supplies the working buffers.
func (s *Schedule) overlapEfficiency(start, end []des.Time, sc *metricsScratch) float64 {
	sc.red = resized(sc.red, len(s.ops))
	red := sc.red
	s.reductionTransfers(red)
	var wStart, wEnd des.Time
	haveWindow := false
	for i := range s.ops {
		if s.ops[i].Marker() || !red[i] {
			continue
		}
		if !haveWindow || start[i] < wStart {
			wStart = start[i]
		}
		if !haveWindow || end[i] > wEnd {
			wEnd = end[i]
		}
		haveWindow = true
	}
	if !haveWindow || wEnd <= wStart {
		return 0
	}
	// Collect broadcast-side occupancy clipped to the window and measure
	// the union of the intervals.
	spans := sc.spans[:0]
	for i := range s.ops {
		if s.ops[i].Marker() || red[i] {
			continue
		}
		lo, hi := max(start[i], wStart), min(end[i], wEnd)
		if hi > lo {
			spans = append(spans, des.Interval{Start: lo, End: hi})
		}
	}
	sc.spans = spans
	if len(spans) == 0 {
		return 0
	}
	slices.SortFunc(spans, func(a, b des.Interval) int { return cmp.Compare(a.Start, b.Start) })
	var covered des.Time
	cur := spans[0]
	for _, iv := range spans[1:] {
		if iv.Start <= cur.End {
			cur.End = max(cur.End, iv.End)
			continue
		}
		covered += cur.End - cur.Start
		cur = iv
	}
	covered += cur.End - cur.Start
	return float64(covered) / float64(wEnd-wStart)
}

// publishExecutionMetrics records one execution's channel traffic, bandwidth
// achievement, detour share, and overlap efficiency, read off the run:
// start and end hold each transfer's executed window, busy each channel's
// occupancy, and total the makespan. Only time differences enter, so a run
// shifted in time publishes the same values. Called after a completed run
// only when collection is enabled: the aggregation is two passes over the
// ops, a sort of the broadcast spans and a labelled series update per used
// channel, and must stay off the disabled path.
func (s *Schedule) publishExecutionMetrics(start, end, busy []des.Time, total des.Time) {
	mExecutions.Inc()
	sc := metricsPool.Get().(*metricsScratch)
	defer metricsPool.Put(sc)

	sc.chBytes = resized(sc.chBytes, len(busy))
	chBytes := sc.chBytes
	var totalBytes, detourBytes int64
	for i := range s.ops {
		op := &s.ops[i]
		if op.Marker() {
			continue
		}
		b := s.Partition.Sizes[op.Chunk]
		chBytes[op.Channel] += b
		totalBytes += b
		if op.Src.Relay >= 0 || op.Dst.Relay >= 0 {
			detourBytes += b
		}
	}
	mBytesMoved.Add(totalBytes)
	if totalBytes > 0 {
		mDetourShare.Set(float64(detourBytes) / float64(totalBytes))
	}

	for i, occ := range busy {
		if chBytes[i] == 0 {
			continue
		}
		ch := s.Graph.Channel(topology.ChannelID(i))
		name := ch.ResourceName()
		mChannelBytes.With(name).Add(chBytes[i])
		mChannelNominalBW.With(name).Set(ch.Bandwidth)
		mChannelEffectiveBW.With(name).Set(ch.EffectiveBandwidth())
		if total > 0 {
			mChannelUtilization.With(name).Set(float64(occ) / float64(total))
		}
		if occ > 0 {
			mChannelAchievedBW.With(name).Set(float64(chBytes[i]) / occ.Seconds())
		}
	}

	mOverlapEfficiency.Set(s.overlapEfficiency(start, end, sc))
}
