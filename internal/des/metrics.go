package des

import "ccube/internal/metrics"

// Engine and resource instruments, registered once against the process-wide
// registry. Every update below is a single atomic check-and-add — zero
// allocations whether collection is enabled or not, which the AllocsPerRun
// tests in alloc_test.go pin.
var (
	mEventsScheduled = metrics.Default.Counter("des_events_scheduled_total",
		"events submitted via Engine.At/After")
	mEventsFired = metrics.Default.Counter("des_events_fired_total",
		"events whose callbacks executed")
	mEventsCancelled = metrics.Default.Counter("des_events_cancelled_dropped_total",
		"cancelled events collected at pop time without firing")
	mPoolRecycled = metrics.Default.Counter("des_event_pool_recycled_total",
		"event records returned to the free list for reuse")
	mPoolAlloc = metrics.Default.Counter("des_event_pool_alloc_total",
		"event records allocated because the free list was empty")
	mTasksExecuted = metrics.Default.Counter("des_tasks_executed_total",
		"tasks completed by the DES run loop")
	mReadyDepthMax = metrics.Default.Gauge("des_ready_queue_depth_max",
		"high-water mark of the ready-task queue across runs")
	mResourceBusyNS = metrics.Default.Counter("des_resource_busy_ns_total",
		"virtual nanoseconds of resource occupancy granted by the run loop")
)
