package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// probeRef is the probe's time on the reference machine, a 2-vCPU Xeon VM
// with no neighbour load. Timed metrics are reported as they would read on
// that machine: each run scales them by its mean probe time over probeRef.
//
// The scaling exists because the benchmark runs on shared VMs. Neighbours'
// memory traffic slows an allocation-heavy Go program by 10-25% for seconds
// to minutes at a time, and no single run can average that out: on a shared
// 2-vCPU Xeon VM the raw throughput of ten runs spread by up to 30%
// (interquartile range over median). The probe is a fixed kernel
// with the same resource profile (allocation, maps, sorting), run in a
// separate process while the server is idle, so the program under test can
// neither speed it up nor slow it down.
const probeRef = 25 * time.Millisecond

// probeKernel is the fixed reference work.
func probeKernel() time.Duration {
	began := time.Now()
	m := make(map[int][]int)
	for i := 0; i < 100000; i++ {
		m[i%5000] = append(m[i%5000], i)
	}
	s := make([]int, 0, 1<<18)
	for i := 0; i < 1<<18; i++ {
		s = append(s, (i*7919)%1000003)
	}
	slices.Sort(s)
	if len(m) != 5000 || s[0] != 0 {
		panic("probe kernel miscomputed")
	}
	return time.Since(began)
}

// probeMain is the `probe` subcommand: it prints the median of three kernel
// runs, in nanoseconds.
func probeMain() int {
	runs := []float64{float64(probeKernel()), float64(probeKernel()), float64(probeKernel())}
	fmt.Println(int64(median(runs)))
	return 0
}

// measureProbe runs the probe in a fresh process and returns its time.
func measureProbe() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	ns, err := strconv.ParseInt(string(bytes.TrimSpace(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("probe output %q: %w", out, err)
	}
	return time.Duration(ns), nil
}
