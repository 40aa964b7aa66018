package chunk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitEven(t *testing.T) {
	p := Split(100, 4)
	if p.NumChunks() != 4 {
		t.Fatalf("chunks = %d, want 4", p.NumChunks())
	}
	for i, s := range p.Sizes {
		if s != 25 {
			t.Fatalf("chunk %d size = %d, want 25", i, s)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRemainder(t *testing.T) {
	p := Split(10, 3)
	want := []int64{4, 3, 3}
	for i := range want {
		if p.Sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", p.Sizes, want)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Regression: Split used to silently clamp k to total, desyncing callers
// that iterate chunk indices 0..k-1 from the partition. It now panics; the
// explicit clamp lives in SplitAtMost.
func TestSplitMoreChunksThanBytesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Split(3, 10) did not panic")
		}
	}()
	Split(3, 10)
}

func TestSplitAtMostClampsExplicitly(t *testing.T) {
	p := SplitAtMost(3, 10)
	if p.NumChunks() != 3 {
		t.Fatalf("chunks = %d, want clamp to 3", p.NumChunks())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// No clamp needed: identical to Split.
	p = SplitAtMost(10, 3)
	q := Split(10, 3)
	if p.NumChunks() != q.NumChunks() || p.Sizes[0] != q.Sizes[0] {
		t.Fatalf("SplitAtMost(10,3) = %+v, want %+v", p, q)
	}
}

func TestSplitPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Split(0, 4) },
		func() { Split(-5, 4) },
		func() { Split(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Split did not panic")
				}
			}()
			f()
		}()
	}
}

func TestChunkOf(t *testing.T) {
	p := Split(10, 3) // sizes 4,3,3 offsets 0,4,7
	cases := []struct {
		byte int64
		want int
	}{
		{0, 0}, {3, 0}, {4, 1}, {6, 1}, {7, 2}, {9, 2},
	}
	for _, c := range cases {
		if got := p.ChunkOf(c.byte); got != c.want {
			t.Errorf("ChunkOf(%d) = %d, want %d", c.byte, got, c.want)
		}
	}
}

func TestChunkOfOutOfRangePanics(t *testing.T) {
	p := Split(10, 2)
	for _, b := range []int64{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChunkOf(%d) did not panic", b)
				}
			}()
			p.ChunkOf(b)
		}()
	}
}

func TestSplitPropertyCoversExactly(t *testing.T) {
	f := func(total uint32, k uint8) bool {
		tot := int64(total%1_000_000) + 1
		kk := int(k%64) + 1
		if int64(kk) > tot {
			kk = int(tot) // Split's contract: k <= total (k > total panics, see TestSplitMoreChunksThanBytesPanics)
		}
		p := Split(tot, kk)
		if p.Validate() != nil {
			return false
		}
		// Sizes differ by at most 1.
		min, max := p.Sizes[0], p.Sizes[0]
		for _, s := range p.Sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkOfPropertyConsistentWithOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		tot := rng.Int63n(100_000) + 1
		k := rng.Intn(50) + 1
		p := Split(tot, k)
		for j := 0; j < 50; j++ {
			b := rng.Int63n(tot)
			c := p.ChunkOf(b)
			if b < p.Offsets[c] || b >= p.Offsets[c]+p.Sizes[c] {
				t.Fatalf("ChunkOf(%d)=%d but chunk covers [%d,%d)", b, c, p.Offsets[c], p.Offsets[c]+p.Sizes[c])
			}
		}
	}
}

func TestLayerChunkTable(t *testing.T) {
	// 3 layers of 4, 3, 3 bytes over chunks of size 5, 5.
	p := Split(10, 2)
	tab := BuildLayerChunkTable([]int64{4, 3, 3}, p)
	// Layer 0 ends at byte 3 -> chunk 0; layer 1 ends at byte 6 -> chunk 1;
	// layer 2 ends at byte 9 -> chunk 1.
	want := []int{0, 1, 1}
	for i := range want {
		if tab.LastChunk[i] != want[i] {
			t.Fatalf("LastChunk = %v, want %v", tab.LastChunk, want)
		}
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayerChunkTableZeroByteLayer(t *testing.T) {
	p := Split(10, 5)
	tab := BuildLayerChunkTable([]int64{0, 4, 0, 6}, p)
	if tab.LastChunk[0] != 0 {
		t.Fatalf("leading zero-byte layer last chunk = %d, want 0", tab.LastChunk[0])
	}
	if tab.LastChunk[2] != tab.LastChunk[1] {
		t.Fatalf("zero-byte layer %d != preceding %d", tab.LastChunk[2], tab.LastChunk[1])
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Pin the documented "inherit preceding layer's chunk" semantics for every
// zero-byte-layer position: leading, trailing, and consecutive runs.
func TestLayerChunkTableZeroByteLayerEdgeCases(t *testing.T) {
	p := Split(10, 5) // sizes 2,2,2,2,2 -> layer byte b lives in chunk b/2
	cases := []struct {
		name   string
		layers []int64
		want   []int
	}{
		{"leading", []int64{0, 10}, []int{0, 4}},
		{"leading-consecutive", []int64{0, 0, 0, 10}, []int{0, 0, 0, 4}},
		{"trailing", []int64{10, 0}, []int{4, 4}},
		{"trailing-consecutive", []int64{10, 0, 0}, []int{4, 4, 4}},
		{"interior-consecutive", []int64{4, 0, 0, 6}, []int{1, 1, 1, 4}},
		{"mixed", []int64{0, 3, 0, 0, 7, 0}, []int{0, 1, 1, 1, 4, 4}},
	}
	for _, c := range cases {
		tab := BuildLayerChunkTable(c.layers, p)
		for i := range c.want {
			if tab.LastChunk[i] != c.want[i] {
				t.Errorf("%s: LastChunk = %v, want %v", c.name, tab.LastChunk, c.want)
				break
			}
		}
		if err := tab.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// An all-zero-byte prefix with a partition built from the remaining bytes:
// every leading zero layer is ready with chunk 0.
func TestLayerChunkTableAllZeroPrefixSuffix(t *testing.T) {
	p := Split(4, 4)
	tab := BuildLayerChunkTable([]int64{0, 0, 4, 0, 0}, p)
	want := []int{0, 0, 3, 3, 3}
	for i := range want {
		if tab.LastChunk[i] != want[i] {
			t.Fatalf("LastChunk = %v, want %v", tab.LastChunk, want)
		}
	}
}

func TestLayerChunkTableSizeMismatchPanics(t *testing.T) {
	p := Split(10, 2)
	defer func() {
		if recover() == nil {
			t.Error("mismatched layer total did not panic")
		}
	}()
	BuildLayerChunkTable([]int64{4, 3}, p)
}

func TestLayerChunkTableMonotonicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		nLayers := rng.Intn(30) + 1
		layers := make([]int64, nLayers)
		var total int64
		for j := range layers {
			layers[j] = rng.Int63n(1000)
			total += layers[j]
		}
		if total == 0 {
			continue
		}
		p := SplitAtMost(total, rng.Intn(40)+1)
		tab := BuildLayerChunkTable(layers, p)
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}
		if tab.NumLayers() != nLayers {
			t.Fatalf("layers = %d, want %d", tab.NumLayers(), nLayers)
		}
	}
}
