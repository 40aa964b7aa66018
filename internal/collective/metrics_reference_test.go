package collective

import (
	"context"
	"sort"

	"ccube/internal/des"
)

// The overlap-efficiency gauge as it was before its buffers were pooled and
// its spans sorted with a typed comparator, kept verbatim as the reference
// the pooled version must match bit for bit (TestOverlapEfficiencyMatchesReference).

// reductionTransfersReference classifies each transfer as reduction-side or not.
// Accumulating transfers are the reduction's last hops; a detour chain
// feeding one is reduction work too, so the flag propagates backwards
// through relay slots. Construction is topological (a relay slot's owner
// precedes its reader), so one descending pass settles every chain.
func reductionTransfersReference(s *Schedule) []bool {
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

// overlapEfficiencyReference measures the paper's C1 claim on an executed schedule:
// the fraction of the reduction window — [first reduction-transfer start,
// last reduction-transfer end] — during which at least one broadcast
// transfer occupies a channel. The baseline double tree broadcasts only
// after the reduction barrier, scoring ~0; the overlapped variants push
// broadcast hops under the reduction and score well above it. start and
// end hold each transfer's executed window, indexed by transfer id.
func overlapEfficiencyReference(s *Schedule, start, end []des.Time) float64 {
	red := reductionTransfersReference(s)
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
	var spans []des.Interval
	for i := range s.ops {
		if s.ops[i].Marker() || red[i] {
			continue
		}
		lo, hi := start[i], end[i]
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

// OverlapEfficiencies runs s and returns its overlap efficiency twice: from
// the production gauge code and from the reference above.
func (s *Schedule) OverlapEfficiencies() (got, want float64, err error) {
	f := des.GetFlat()
	defer des.PutFlat(f)
	if err := s.fill(f, nil, nil); err != nil {
		return 0, 0, err
	}
	if _, err := f.RunCtx(context.Background()); err != nil {
		return 0, 0, err
	}
	sc := metricsPool.Get().(*metricsScratch)
	defer metricsPool.Put(sc)
	return s.overlapEfficiency(f.Start, f.End, sc), overlapEfficiencyReference(s, f.Start, f.End), nil
}
