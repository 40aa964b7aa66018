package train

import (
	"time"

	"ccube/internal/des"
	"ccube/internal/metrics"
)

// Training-loop instruments. Iteration timings are virtual (simulated)
// microseconds keyed by mode; step wall time is real host seconds, the
// simulator's own cost per iteration.
var (
	mSteps = metrics.Default.Counter("train_steps_total",
		"simulated training iterations completed")
	mStepWallSeconds = metrics.Default.Gauge("train_step_wall_seconds",
		"host wall-clock seconds the last RunCtx took")
	mIterTimeUS = metrics.Default.GaugeVec("train_iter_time_us",
		"last simulated iteration time (virtual us)", "mode")
	mFirstFwdWaitUS = metrics.Default.GaugeVec("train_first_forward_wait_us",
		"last first-forward-layer stall after backward (virtual us)", "mode")
	mLayerFwdStartUS = metrics.Default.Histogram("train_layer_forward_start_us",
		"per-layer forward-start latency after backward on the critical GPU (virtual us, C2 benefit)",
		metrics.ExpBuckets(10, 4, 12))
	mLayerDequeueWaitUS = metrics.Default.Histogram("train_layer_dequeue_wait_us",
		"per-layer gradient-queue wait before forward start on the critical GPU (virtual us)",
		metrics.ExpBuckets(1, 4, 12))
)

// publishIteration records one RunCtx outcome; called only when
// collection is enabled (the vec lookups allocate on first use).
func publishIteration(res *Result, bwdEnd des.Time, wall time.Duration) {
	mSteps.Inc()
	mStepWallSeconds.Set(wall.Seconds())
	mIterTimeUS.With(string(res.Mode)).Set(res.IterTime.Micros())
	mFirstFwdWaitUS.With(string(res.Mode)).Set(res.FirstForwardWait.Micros())
	for l, start := range res.LayerForwardStart {
		mLayerFwdStartUS.Observe((start - bwdEnd).Micros())
		mLayerDequeueWaitUS.Observe(res.LayerDequeueWait[l].Micros())
	}
}
