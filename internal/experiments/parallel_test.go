package experiments

import (
	"reflect"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/collective/collectivetest"
	"ccube/internal/scaleout"
)

// The parallel sweeps must be invisible in the output: any worker count
// yields bit-identical results to the serial reference path. These tests run
// under -race in CI (see the race job), which also proves the shared
// graph + schedule-cache accesses are properly synchronized.

func TestFig13ParallelMatchesSerial(t *testing.T) {
	pts := fig13Grid()
	// One batch column is enough to cover both bandwidths, every model and
	// every mode while keeping the doubled run affordable.
	var subset []fig13Point
	for _, p := range pts {
		if p.batch == fig13Batches[0] {
			subset = append(subset, p)
		}
	}
	serial, err := runFig13Grid(subset, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	collective.DefaultCache.Clear() // parallel run must not inherit warm schedules
	parallel, err := runFig13Grid(subset, 8)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("cell count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		// Every field of the cell, the executed pipeline graph with its
		// collective blocks and their schedules included; only a schedule's
		// op-graph record, whose state records the order the cache served
		// the sweep in, is skipped.
		if !collectivetest.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("cell %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
		}
	}
}

func TestExtFaultsParallelMatchesSerial(t *testing.T) {
	run := func(workers int) interface{} {
		old := Parallelism
		Parallelism = workers
		defer func() { Parallelism = old }()
		tables, err := ExtFaults()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tables
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("ext-faults tables differ between serial and parallel runs:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestScaleoutParallelMatchesSerial(t *testing.T) {
	cfg := fig14Config(16) // 4..16 nodes: small but exercises shared graphs
	cfg.Workers = 1
	serial, err := scaleout.Run(cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	cfg.Workers = 8
	parallel, err := scaleout.Run(cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("scale-out points differ between serial and parallel runs")
	}
}
