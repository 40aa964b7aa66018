package chunk

import (
	"math"
	"reflect"
	"testing"
)

// FuzzSplit exercises SplitAtMost across arbitrary sizes: the partition must
// always cover exactly the total, in order, with near-equal chunks, and the
// k > total clamp must match Split's strict contract (which panics there).
// Run `go test -fuzz=FuzzSplit ./internal/chunk` to explore beyond the
// seeds; `go test` replays the seed corpus as regression tests.
func FuzzSplit(f *testing.F) {
	f.Add(int64(1), 1)
	f.Add(int64(100), 7)
	f.Add(int64(1<<31), 512)
	f.Add(int64(3), 100)
	f.Fuzz(func(t *testing.T, total int64, k int) {
		if total <= 0 || k < 1 || total > 1<<40 || k > 1<<16 {
			t.Skip()
		}
		p := SplitAtMost(total, k)
		if int64(k) <= total && p.NumChunks() != k {
			t.Fatalf("SplitAtMost(%d,%d) clamped to %d chunks without need", total, k, p.NumChunks())
		}
		if int64(k) > total && p.NumChunks() != int(total) {
			t.Fatalf("SplitAtMost(%d,%d) = %d chunks, want clamp to %d", total, k, p.NumChunks(), total)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Split(%d,%d): %v", total, k, err)
		}
		min, max := p.Sizes[0], p.Sizes[0]
		for _, s := range p.Sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Fatalf("Split(%d,%d): uneven chunks (min %d, max %d)", total, k, min, max)
		}
		// ChunkOf agrees with offsets at block boundaries.
		for i := range p.Offsets {
			if got := p.ChunkOf(p.Offsets[i]); got != i {
				t.Fatalf("ChunkOf(offset[%d]) = %d", i, got)
			}
		}
	})
}

// FuzzSplitRates checks the rate-weighted partition over arbitrary sizes,
// chunk counts and stream rates (one stream per rate byte, rate byte+1
// times a scale of 10^exp): the sizes cover the total with contiguous
// offsets and at least one byte each, the chunks of one stream differ by
// at most one byte, and the same call with every rate equal is exactly
// Split.
func FuzzSplitRates(f *testing.F) {
	f.Add(int64(16<<20), 63, []byte{199, 149, 99}, uint8(9))
	f.Add(int64(100), 7, []byte{0, 255}, uint8(0))
	f.Add(int64(5), 5, []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, uint8(2))
	f.Add(int64(1<<31), 512, []byte{7}, uint8(12))
	f.Fuzz(func(t *testing.T, total int64, k int, rateBytes []byte, exp uint8) {
		if total <= 0 || k < 1 || int64(k) > total || total > 1<<40 || k > 1<<16 ||
			len(rateBytes) == 0 || len(rateBytes) > 64 {
			t.Skip()
		}
		scale := math.Pow(10, float64(exp%16))
		rates := make([]float64, len(rateBytes))
		for i, b := range rateBytes {
			rates[i] = (float64(b) + 1) * scale
		}
		p := SplitRates(total, k, rates)
		if p.NumChunks() != k {
			t.Fatalf("SplitRates(%d,%d,%v) = %d chunks", total, k, rates, p.NumChunks())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("SplitRates(%d,%d,%v): %v", total, k, rates, err)
		}
		s := len(rates)
		for i := 0; i < s && i < k; i++ {
			lo, hi := p.Sizes[i], p.Sizes[i]
			for c := i; c < k; c += s {
				lo, hi = min(lo, p.Sizes[c]), max(hi, p.Sizes[c])
			}
			if hi-lo > 1 {
				t.Fatalf("SplitRates(%d,%d,%v): stream %d sizes span [%d, %d]", total, k, rates, i, lo, hi)
			}
		}
		for i := range rates {
			rates[i] = rates[0]
		}
		if got, want := SplitRates(total, k, rates), Split(total, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("SplitRates(%d,%d) with %d equal rates differs from Split", total, k, s)
		}
	})
}

// FuzzLayerChunkTable checks the layer-chunk invariants for arbitrary layer
// size vectors.
func FuzzLayerChunkTable(f *testing.F) {
	f.Add([]byte{10, 20, 30}, 4)
	f.Add([]byte{0, 5, 0, 0, 9}, 2)
	f.Add([]byte{255}, 300)
	f.Fuzz(func(t *testing.T, sizes []byte, k int) {
		if len(sizes) == 0 || len(sizes) > 1000 || k < 1 || k > 4096 {
			t.Skip()
		}
		layers := make([]int64, len(sizes))
		var total int64
		for i, b := range sizes {
			layers[i] = int64(b)
			total += int64(b)
		}
		if total == 0 {
			t.Skip()
		}
		p := SplitAtMost(total, k)
		tab := BuildLayerChunkTable(layers, p)
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}
		if tab.NumLayers() != len(layers) {
			t.Fatalf("layers %d != %d", tab.NumLayers(), len(layers))
		}
		// The final layer's last chunk must be the final chunk.
		last := len(layers) - 1
		for layers[last] == 0 && last > 0 {
			last--
		}
		if layers[last] > 0 && tab.LastChunk[last] != p.NumChunks()-1 {
			t.Fatalf("final non-empty layer maps to chunk %d of %d",
				tab.LastChunk[last], p.NumChunks())
		}
	})
}
