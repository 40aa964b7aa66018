package collective

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"ccube/internal/chunk"
	"ccube/internal/collective/store"
	"ccube/internal/topology"
)

// This file is the bridge between collective.Cache and the on-disk schedule
// store (internal/collective/store): the string form of a cache key that is
// stable across processes, and a versioned binary codec for schedules.
//
// The store holds opaque bytes; the trust split is deliberate. The store
// authenticates its record (magic, version, key echo, checksum) — it proves
// "these are the bytes some process wrote for this key". This file proves
// the bytes still mean a valid schedule: decodeSchedule bounds-checks every
// index against the live graph, and the cache then runs the full static
// verifier once on the reconstructed schedule (verify-on-load, see
// Cache.loadFromStore). Only after both steps does a loaded schedule get the
// fingerprint stamp that lets it execute.

// schedCodecVersion versions the payload encoding below. Bump it whenever
// the byte layout or the Schedule fields it captures change; old entries
// then decode-fail and are dropped as corrupt, which is the intended
// migration path (the store is a cache, not a database).
const schedCodecVersion = 1

// storeKey renders a cache key as the store's content address. It is the
// in-memory cacheKey minus the graph pointer: the pointer is meaningless in
// another process, and the fingerprint already names the graph's content.
// The codec version is part of the key so a format change cleanly misses
// instead of hitting entries it can no longer read.
func storeKey(k cacheKey) string {
	var sb strings.Builder
	sb.WriteString("ccs/v")
	sb.WriteString(strconv.Itoa(schedCodecVersion))
	sb.WriteString("/fp=")
	sb.WriteString(topology.FormatFingerprint(k.fp))
	sb.WriteString("/alg=")
	sb.WriteString(strconv.Itoa(int(k.alg)))
	sb.WriteString("/bytes=")
	sb.WriteString(strconv.FormatInt(k.bytes, 10))
	sb.WriteString("/chunks=")
	sb.WriteString(strconv.Itoa(k.chunks))
	sb.WriteString("/shared=")
	if k.shared {
		sb.WriteByte('1')
	} else {
		sb.WriteByte('0')
	}
	sb.WriteString("/x=")
	sb.WriteString(k.extra)
	// The synthesis-config fingerprint is appended only when present so the
	// built-in algorithms' addresses — and every warm store written before
	// synthesis existed — stay stable.
	if k.synth != "" {
		sb.WriteString("/sy=")
		sb.WriteString(k.synth)
	}
	return sb.String()
}

// StoreKey returns the on-disk store key for a cacheable configuration, and
// whether the configuration is cacheable at all. ccube-bench uses it with
// store.EntryPath to locate — and deliberately corrupt — a specific entry
// for its corruption-handling probe.
func StoreKey(cfg Config) (string, bool) {
	if !cacheable(cfg) {
		return "", false
	}
	return storeKey(DefaultCache.key(cfg)), true
}

// transfer flag bits in the encoded form.
const (
	tfAccumulate = 1 << 0
	tfNoAlpha    = 1 << 1
)

// schedule flag bits.
const sfInOrder = 1 << 0

// encodeSchedule serializes a schedule's graph-independent content. The
// graph itself is not encoded — the store key's topology fingerprint names
// it, and decodeSchedule re-binds to the caller's live graph.
//
// Layout (all integers varint/uvarint, little-endian framing by the store):
//
//	codecVersion, nodeCount, nodes...,
//	partition: totalBytes, chunkCount, sizes...   (offsets are recomputed)
//	flags (InOrder), streams, contract,
//	transferCount, then per transfer:
//	  chunk, bytes, channel, depCount, deps...,
//	  src.node, src.relay, dst.node, dst.relay,
//	  flags (accumulate|noAlpha), finalNode, labelLen, label
func encodeSchedule(s *Schedule) []byte {
	// Rough size guess: ~32 bytes per transfer avoids most regrowth.
	buf := make([]byte, 0, 64+32*len(s.transfers))
	buf = binary.AppendUvarint(buf, schedCodecVersion)

	buf = binary.AppendUvarint(buf, uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		buf = binary.AppendVarint(buf, int64(n))
	}

	buf = binary.AppendVarint(buf, s.Partition.TotalBytes)
	buf = binary.AppendUvarint(buf, uint64(s.Partition.NumChunks()))
	for _, sz := range s.Partition.Sizes {
		buf = binary.AppendVarint(buf, sz)
	}

	var flags uint64
	if s.InOrder {
		flags |= sfInOrder
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendVarint(buf, int64(s.Streams))
	buf = binary.AppendUvarint(buf, uint64(s.Contract))

	buf = binary.AppendUvarint(buf, uint64(len(s.transfers)))
	for _, t := range s.transfers {
		buf = binary.AppendVarint(buf, int64(t.chunk))
		buf = binary.AppendVarint(buf, t.bytes)
		buf = binary.AppendVarint(buf, int64(t.channel))
		buf = binary.AppendUvarint(buf, uint64(len(t.deps)))
		for _, d := range t.deps {
			buf = binary.AppendVarint(buf, int64(d))
		}
		buf = binary.AppendVarint(buf, int64(t.src.node))
		buf = binary.AppendVarint(buf, int64(t.src.relay))
		buf = binary.AppendVarint(buf, int64(t.dst.node))
		buf = binary.AppendVarint(buf, int64(t.dst.relay))
		var tf uint64
		if t.accumulate {
			tf |= tfAccumulate
		}
		if t.noAlpha {
			tf |= tfNoAlpha
		}
		buf = binary.AppendUvarint(buf, tf)
		buf = binary.AppendVarint(buf, int64(t.finalNode))
		buf = binary.AppendUvarint(buf, uint64(len(t.label)))
		buf = append(buf, t.label...)
	}
	return buf
}

// decReader walks an encoded payload, latching the first error. Count
// fields are cross-checked against the bytes actually remaining before any
// allocation sized by them, so a corrupted count cannot demand gigabytes.
type decReader struct {
	data []byte
	err  error
}

func (r *decReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *decReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("collective: truncated or malformed uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *decReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("collective: truncated or malformed varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// count reads a length field and rejects values that cannot possibly be
// satisfied by the remaining bytes (each element takes >= 1 byte).
func (r *decReader) count(what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)) {
		r.fail("collective: %s count %d exceeds remaining payload (%d bytes)", what, v, len(r.data))
		return 0
	}
	return int(v)
}

func (r *decReader) str(n int) string {
	if r.err != nil {
		return ""
	}
	if n > len(r.data) {
		r.fail("collective: truncated string")
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// decodeSchedule reconstructs a schedule from an encoded payload, re-bound
// to the caller's live graph. Every index is bounds-checked against that
// graph and the payload's own declared counts, so arbitrary bytes can fail
// but never panic or allocate unboundedly. A nil error here still does NOT
// make the schedule trustworthy — the caller must run verify-on-load
// (Schedule.Validate) before stamping or executing it.
func decodeSchedule(data []byte, g *topology.Graph) (*Schedule, error) {
	if g == nil {
		return nil, fmt.Errorf("collective: decode into nil graph")
	}
	r := &decReader{data: data}

	if v := r.uvarint(); r.err == nil && v != schedCodecVersion {
		return nil, fmt.Errorf("collective: schedule codec version %d, want %d", v, schedCodecVersion)
	}

	numNodes := r.count("node")
	nodes := make([]topology.NodeID, 0, numNodes)
	seen := make(map[topology.NodeID]bool, numNodes)
	for i := 0; i < numNodes; i++ {
		id := topology.NodeID(r.varint())
		if r.err != nil {
			break
		}
		if id < 0 || int(id) >= g.NumNodes() {
			return nil, fmt.Errorf("collective: decoded node %d outside graph (%d nodes)", id, g.NumNodes())
		}
		if seen[id] {
			return nil, fmt.Errorf("collective: decoded duplicate participant %d", id)
		}
		seen[id] = true
		nodes = append(nodes, id)
	}

	total := r.varint()
	numChunks := r.count("chunk")
	part := chunk.Partition{
		TotalBytes: total,
		Sizes:      make([]int64, 0, numChunks),
		Offsets:    make([]int64, 0, numChunks),
	}
	var off int64
	for i := 0; i < numChunks; i++ {
		sz := r.varint()
		if r.err != nil {
			break
		}
		part.Sizes = append(part.Sizes, sz)
		part.Offsets = append(part.Offsets, off)
		off += sz
	}
	if r.err == nil {
		if err := part.Validate(); err != nil {
			return nil, fmt.Errorf("collective: decoded partition invalid: %w", err)
		}
	}

	flags := r.uvarint()
	streams := int(r.varint())
	contract := Contract(r.uvarint())
	if r.err == nil && contract != ContractGeneric && contract != ContractAllReduce {
		return nil, fmt.Errorf("collective: decoded unknown contract %d", contract)
	}

	numTransfers := r.count("transfer")
	s := &Schedule{
		Graph:     g,
		Nodes:     nodes,
		Partition: part,
		InOrder:   flags&sfInOrder != 0,
		Streams:   streams,
		Contract:  contract,
		transfers: make([]*transfer, 0, numTransfers),
	}
	for i := 0; i < numTransfers && r.err == nil; i++ {
		t := &transfer{id: i}
		t.chunk = int(r.varint())
		t.bytes = r.varint()
		t.channel = topology.ChannelID(r.varint())
		numDeps := r.count("dep")
		if numDeps > 0 {
			t.deps = make([]int, 0, numDeps)
			for d := 0; d < numDeps; d++ {
				dep := int(r.varint())
				if r.err != nil {
					break
				}
				if dep < 0 || dep >= numTransfers {
					return nil, fmt.Errorf("collective: decoded transfer %d dep %d out of range", i, dep)
				}
				t.deps = append(t.deps, dep)
			}
		}
		t.src = bufRef{node: topology.NodeID(r.varint()), relay: int(r.varint())}
		t.dst = bufRef{node: topology.NodeID(r.varint()), relay: int(r.varint())}
		tf := r.uvarint()
		t.accumulate = tf&tfAccumulate != 0
		t.noAlpha = tf&tfNoAlpha != 0
		t.finalNode = topology.NodeID(r.varint())
		t.label = r.str(r.count("label"))
		if r.err != nil {
			break
		}
		if t.chunk < 0 || t.chunk >= numChunks {
			return nil, fmt.Errorf("collective: decoded transfer %d chunk %d out of range [0,%d)", i, t.chunk, numChunks)
		}
		if int(t.channel) >= g.NumChannels() {
			return nil, fmt.Errorf("collective: decoded transfer %d channel %d outside graph (%d channels)", i, t.channel, g.NumChannels())
		}
		if !t.isMarker() && t.bytes <= 0 {
			return nil, fmt.Errorf("collective: decoded transfer %d moves %d bytes", i, t.bytes)
		}
		s.transfers = append(s.transfers, t)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("collective: %d trailing bytes after decoded schedule", len(r.data))
	}
	return s, nil
}

// loadFromStore attempts the second cache level: fetch the entry for k from
// the disk store, decode it against the live graph, and re-verify it with
// the full static verifier — verify-on-load. Disk bytes were never proven
// in this process (another process, or a past life of this one, did the
// proving), so the miss-verify invariant demands the proof be redone before
// the schedule is stamped and shared. Any failure along the way invalidates
// the entry (counted corrupt, file deleted) and reports a miss; the caller
// falls through to a fresh build.
func (c *Cache) loadFromStore(disk *store.Store, k cacheKey) (*Schedule, bool) {
	key := storeKey(k)
	payload, ok := disk.Get(key)
	if !ok {
		return nil, false
	}
	s, err := decodeSchedule(payload, k.graph)
	if err != nil {
		disk.Invalidate(key)
		return nil, false
	}
	// The payload passed the store's checksum but could still have been
	// written for different semantics (e.g. a hash-collision key echo would
	// have been caught; a buggy writer would not). Cheap cross-checks
	// against the key, then the full proof.
	if s.Partition.TotalBytes != k.bytes {
		disk.Invalidate(key)
		return nil, false
	}
	if err := s.Validate(); err != nil {
		disk.Invalidate(key)
		return nil, false
	}
	s.stamp()
	return s, true
}
