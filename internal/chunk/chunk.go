// Package chunk partitions an AllReduce message into the pipeline chunks the
// collective algorithms operate on, and maps neural-network layers onto those
// chunks (the paper's Layer-Chunk Table, Fig. 9).
//
// C-Cube deliberately introduces no extra partitioning: the chunks are the
// ones the collective already pipelines for bandwidth (paper §III-D), and the
// gradient queue reuses the gradient buffer at chunk granularity.
package chunk

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Partition describes a message of TotalBytes split into contiguous chunks.
// Chunk i covers bytes [Offsets[i], Offsets[i]+Sizes[i]).
type Partition struct {
	TotalBytes int64
	Sizes      []int64
	Offsets    []int64
}

// Split partitions total bytes into exactly k near-equal chunks: the first
// total%k chunks get one extra byte so sizes differ by at most one. Split
// panics when k > total (zero-byte chunks are never produced); callers that
// iterate chunk indices 0..k-1 would silently desync from a clamped
// partition. Use SplitAtMost when a smaller chunk count is acceptable.
func Split(total int64, k int) Partition {
	mustSplit(total, k)
	p := Partition{
		TotalBytes: total,
		Sizes:      make([]int64, k),
		Offsets:    make([]int64, k),
	}
	base := total / int64(k)
	extra := total % int64(k)
	var off int64
	for i := 0; i < k; i++ {
		size := base
		if int64(i) < extra {
			size++
		}
		p.Sizes[i] = size
		p.Offsets[i] = off
		off += size
	}
	return p
}

// mustSplit panics unless total bytes split into k chunks of a byte or more.
func mustSplit(total int64, k int) {
	if total <= 0 {
		panic(fmt.Sprintf("chunk: total bytes %d <= 0", total))
	}
	if k < 1 {
		panic(fmt.Sprintf("chunk: chunk count %d < 1", k))
	}
	if int64(k) > total {
		panic(fmt.Sprintf("chunk: %d chunks for %d bytes (zero-byte chunks); use SplitAtMost for an explicit clamp", k, total))
	}
}

// SplitAtMost partitions total bytes into min(k, total) near-equal chunks.
// The clamp is explicit: the caller must take the actual chunk count from
// Partition.NumChunks rather than assuming k.
func SplitAtMost(total int64, k int) Partition {
	if int64(k) > total && total > 0 {
		k = int(total)
	}
	return Split(total, k)
}

// rateScale is the fixed-point scale rates are quantized to: a stream's
// weight is its rate relative to the fastest, in units of 2^-20, so the
// share arithmetic below is exact integer math and equal rates compare
// equal.
const rateScale = 1 << 20

// Stream is one stream's share of a rate-weighted partition (see Streams):
// each of its chunks holds Size bytes, and its first Big chunks one byte
// more.
type Stream struct {
	Size int64
	Big  int
	w    uint64 // quantized rate
	rem  uint64 // remainder of the exact per-chunk share, over the total weight
}

// SplitRates partitions total bytes into k chunks sized by stream rate:
// chunk c belongs to stream c mod len(rates), and its size is proportional
// to that stream's rate. Every chunk gets at least one byte, the chunks of
// one stream differ by at most one byte, and with equal rates the result is
// exactly Split(total, k). Streams describes the same sizes per stream
// without building the partition. SplitRates panics where Split does, and
// on an empty rate list or a rate that is not positive and finite.
func SplitRates(total int64, k int, rates []float64) Partition {
	var buf [8]Stream
	st := Streams(buf[:0], total, k, rates)
	p := Partition{
		TotalBytes: total,
		Sizes:      make([]int64, k),
		Offsets:    make([]int64, k),
	}
	var off int64
	for c := 0; c < k; c++ {
		s := &st[c%len(st)]
		size := s.Size
		if c/len(st) < s.Big {
			size++
		}
		p.Sizes[c] = size
		p.Offsets[c] = off
		off += size
	}
	return p
}

// Streams returns, in dst resized to len(rates), each stream's share of
// SplitRates(total, k, rates). Each chunk first gets one byte. The other
// total-k bytes are shared in proportion to the chunks' rates, rounded
// down. The bytes rounding leaves over go one each to the chunks with the
// largest rounded-off remainder, ties to the lower chunk index, so they
// land on a prefix of each stream's chunks. With equal rates every
// remainder ties and they go to the first chunks, as in Split.
func Streams(dst []Stream, total int64, k int, rates []float64) []Stream {
	mustSplit(total, k)
	if len(rates) == 0 {
		panic("chunk: no stream rates")
	}
	fastest := 0.0
	for i, r := range rates {
		if !(r > 0) || math.IsInf(r, 1) {
			panic(fmt.Sprintf("chunk: stream %d rate %v is not positive and finite", i, r))
		}
		fastest = max(fastest, r)
	}
	dst = slices.Grow(dst[:0], len(rates))[:len(rates)]
	s := len(rates)
	var weight uint64 // summed over chunks
	for i, r := range rates {
		dst[i] = Stream{w: max(1, uint64(math.Round(r/fastest*rateScale)))}
		weight += uint64(chunksOf(k, s, i)) * dst[i].w
	}
	spare := uint64(total) - uint64(k)
	left := spare
	for i := range dst {
		n := chunksOf(k, s, i)
		if n == 0 {
			continue // a stream past the last chunk carries nothing
		}
		hi, lo := bits.Mul64(spare, dst[i].w)
		q, rem := bits.Div64(hi, lo, weight)
		dst[i].Size, dst[i].rem = 1+int64(q), rem
		left -= uint64(n) * q
	}
	// Hand out the leftover bytes by descending remainder. The streams tied
	// at one remainder take theirs in chunk order: round j gives chunk j of
	// each tied stream, lowest stream first.
	above := uint64(math.MaxUint64) // remainders at or above this are done
	for left > 0 {
		var cur uint64
		for i := range dst {
			if dst[i].rem < above {
				cur = max(cur, dst[i].rem)
			}
		}
		for j := 0; left > 0 && j < chunksOf(k, s, 0); j++ {
			for i := 0; left > 0 && i < s; i++ {
				if dst[i].rem == cur && j < chunksOf(k, s, i) {
					dst[i].Big++
					left--
				}
			}
		}
		above = cur
	}
	return dst
}

// chunksOf is how many of k round-robin chunks stream i of s carries.
func chunksOf(k, s, i int) int { return (k - i + s - 1) / s }

// NumChunks returns the chunk count.
func (p Partition) NumChunks() int { return len(p.Sizes) }

// ChunkOf returns the index of the chunk containing byte offset `byte`.
func (p Partition) ChunkOf(byte int64) int {
	if byte < 0 || byte >= p.TotalBytes {
		panic(fmt.Sprintf("chunk: byte offset %d out of range [0,%d)", byte, p.TotalBytes))
	}
	// Binary search over offsets.
	lo, hi := 0, len(p.Offsets)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.Offsets[mid] <= byte {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Validate checks internal consistency: contiguous coverage of TotalBytes.
func (p Partition) Validate() error {
	if len(p.Sizes) != len(p.Offsets) {
		return fmt.Errorf("chunk: %d sizes vs %d offsets", len(p.Sizes), len(p.Offsets))
	}
	var off int64
	for i := range p.Sizes {
		if p.Sizes[i] <= 0 {
			return fmt.Errorf("chunk: chunk %d has size %d", i, p.Sizes[i])
		}
		if p.Offsets[i] != off {
			return fmt.Errorf("chunk: chunk %d offset %d, want %d", i, p.Offsets[i], off)
		}
		off += p.Sizes[i]
	}
	if off != p.TotalBytes {
		return fmt.Errorf("chunk: chunks cover %d bytes, want %d", off, p.TotalBytes)
	}
	return nil
}

// LayerChunkTable maps each layer to the last chunk that carries any of its
// gradient bytes. A layer's gradients are complete — and its forward pass
// may be dequeued — once every chunk up to and including LastChunk[layer]
// has finished AllReduce (paper Fig. 9, "Layer-Chunk Table").
//
// Layers are laid out in forward order, layer 0 first, because the next
// iteration consumes gradients in that order (paper Fig. 8).
type LayerChunkTable struct {
	LastChunk []int
}

// BuildLayerChunkTable lays out layers contiguously in index order over the
// partition and records each layer's final chunk. Zero-byte layers inherit
// the preceding layer's last chunk (they are ready whenever it is).
func BuildLayerChunkTable(layerBytes []int64, p Partition) LayerChunkTable {
	var total int64
	for i, b := range layerBytes {
		if b < 0 {
			panic(fmt.Sprintf("chunk: layer %d has negative size %d", i, b))
		}
		total += b
	}
	if total != p.TotalBytes {
		panic(fmt.Sprintf("chunk: layers total %d bytes but partition covers %d", total, p.TotalBytes))
	}
	t := LayerChunkTable{LastChunk: make([]int, len(layerBytes))}
	var off int64
	for i, b := range layerBytes {
		if b == 0 {
			if off == 0 {
				t.LastChunk[i] = 0 // ready with the very first chunk
			} else {
				t.LastChunk[i] = p.ChunkOf(off - 1)
			}
			continue
		}
		t.LastChunk[i] = p.ChunkOf(off + b - 1)
		off += b
	}
	return t
}

// NumLayers returns the layer count.
func (t LayerChunkTable) NumLayers() int { return len(t.LastChunk) }

// Validate checks that last-chunk indices are non-decreasing (layers are
// contiguous, so a later layer can never complete on an earlier chunk).
func (t LayerChunkTable) Validate() error {
	for i := 1; i < len(t.LastChunk); i++ {
		if t.LastChunk[i] < t.LastChunk[i-1] {
			return fmt.Errorf("chunk: layer %d last chunk %d < layer %d last chunk %d",
				i, t.LastChunk[i], i-1, t.LastChunk[i-1])
		}
	}
	return nil
}
