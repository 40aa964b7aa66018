package gpusim

import "ccube/internal/metrics"

// Persistent-kernel emulation instruments.
var (
	mRuns = metrics.Default.Counter("gpusim_runs_total",
		"emulated schedule runs started")
	mKernelStalls = metrics.Default.Counter("gpusim_kernel_stalls_total",
		"persistent kernels that exhausted their spin budget")
)
