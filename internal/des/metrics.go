package des

import "ccube/internal/metrics"

// Run-loop instruments, registered once against the process-wide registry
// and published by Flat.RunCtx once per run (never per task). Every update
// is a single atomic check-and-add or check-and-max — zero allocations
// whether collection is enabled or not, which the AllocsPerRun tests in
// alloc_test.go pin.
var (
	mTasksExecuted = metrics.Default.Counter("des_tasks_executed_total",
		"tasks completed by the DES run loop")
	mReadyDepthMax = metrics.Default.Gauge("des_ready_queue_depth_max",
		"high-water mark of the ready-task queue across runs")
	mResourceBusyNS = metrics.Default.Counter("des_resource_busy_ns_total",
		"virtual nanoseconds of resource occupancy granted by the run loop")
)
