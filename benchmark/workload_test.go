package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestStreamsAreSeeded(t *testing.T) {
	join := func(s []request) []byte {
		var b bytes.Buffer
		for _, q := range s {
			b.WriteString(q.path)
			b.Write(q.body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	for _, w := range workloads {
		a, b, c := join(w.stream(7)), join(w.stream(7)), join(w.stream(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if n := len(w.stream(7)); n != w.length {
			t.Errorf("%s: stream has %d requests, want %d", w.name, n, w.length)
		}
	}
}

func TestUniqueWorkloadsNeverRepeatASize(t *testing.T) {
	for _, name := range []string{"plan_unique", "synth_irregular"} {
		w, _ := findWorkload(name)
		seen := make(map[int64]bool)
		for _, q := range w.stream(1) {
			var b planBody
			if err := json.Unmarshal(q.body, &b); err != nil {
				t.Fatal(err)
			}
			if seen[b.Bytes] {
				t.Fatalf("%s: size %d repeats", name, b.Bytes)
			}
			seen[b.Bytes] = true
		}
	}
}

func TestTrainUniqueNeverRepeatsABody(t *testing.T) {
	w, _ := findWorkload("train_unique")
	seen := make(map[string]bool)
	for _, q := range w.stream(1) {
		if seen[string(q.body)] {
			t.Fatalf("train_unique: %s repeats", q.body)
		}
		seen[string(q.body)] = true
	}
}

func TestZipfUniverse(t *testing.T) {
	plans, sims, trains := zipfKeys(newRand(1, "universe"))
	canonical := make(map[string]bool)
	for _, set := range [][]request{plans, sims, trains} {
		for _, q := range set {
			req, err := decodeRequest(q.path, q.body)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			canonical[q.path+string(b)] = true
		}
	}
	if len(canonical) != zipfUniverse {
		t.Fatalf("universe has %d distinct canonical bodies, want %d", len(canonical), zipfUniverse)
	}

	w, _ := findWorkload("serve_zipf")
	count := make(map[string]float64)
	stream := w.stream(1)
	for _, q := range stream {
		count[q.path]++
	}
	for path, want := range map[string]float64{pathPlan: 0.45, pathSimulate: 0.35, pathTrain: 0.20} {
		if got := count[path] / float64(len(stream)); got < want-0.02 || got > want+0.02 {
			t.Errorf("%s carries %.3f of the traffic, want %.2f", path, got, want)
		}
	}
}

// Most simulate_scale requests need a schedule shape the recent past did not
// build, so the schedule cache cannot serve them by patching a sibling.
func TestSimulateScaleShapesAreMostlyNew(t *testing.T) {
	w, _ := findWorkload("simulate_scale")
	stream := w.stream(1)
	shapes := make([]simulateBody, len(stream))
	fresh := 0
	for i, q := range stream {
		if err := json.Unmarshal(q.body, &shapes[i]); err != nil {
			t.Fatal(err)
		}
		shapes[i].Bytes = 0
		seen := false
		for j := max(0, i-256); j < i && !seen; j++ {
			seen = shapes[j] == shapes[i]
		}
		if !seen {
			fresh++
		}
	}
	if share := float64(fresh) / float64(len(stream)); share < 0.6 {
		t.Fatalf("%.2f of requests carry a new (topology, algorithm, chunks) shape, want >= 0.6", share)
	}
}
