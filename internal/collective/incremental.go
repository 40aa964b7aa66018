package collective

import "ccube/internal/schedcheck"

// Incremental rebuilds: when the cache misses only because the message size
// changed — same topology fingerprint, algorithm, participants, chunk-count
// request, and sharing flag — the compiled task graph of a cached sibling is
// reusable as-is. The transfer DAG of every algorithm here is a function of
// the topology, the participant set, and the *chunk count*; the bytes only
// scale each transfer's cost. So instead of re-embedding trees or rings and
// re-proving the result, we clone the sibling, swap in the new partition,
// and patch each transfer's byte count to its chunk's new size.
//
// Safety argument for skipping the full static verifier on this path: the
// sibling passed it, and every property it proves — acyclicity, hazard
// ordering, link validity, conservation, in-order delivery — is invariant
// under changing positive byte counts (the verifier's byte-dependent checks
// are exactly the bytes > 0 guards of its structure class, which
// schedcheck.CheckStructure re-runs on the patched schedule). The patch is
// conservative: any transfer whose bytes do not equal its chunk's size in
// the sibling's partition — a shape assumption violated — aborts the patch
// and falls back to a full build, as does a chunk-count change (tree chunk
// counts depend on bytes through the KOpt heuristic).
// TestIncrementalMatchesFullBuild pins the equivalence: patched and freshly
// built schedules must be deep-equal.

// shapeSiblingLocked scans the memory cache for an entry differing from k
// only in bytes. Caller holds c.mu. The scan is O(entries) but the cache is
// small (DefaultCacheCapacity) and the scan only runs on misses, which are
// immediately followed by a build or disk load that dwarfs it.
func (c *Cache) shapeSiblingLocked(k cacheKey) *Schedule {
	for key, el := range c.entries {
		if key.graph == k.graph && key.fp == k.fp && key.alg == k.alg &&
			key.chunks == k.chunks && key.shared == k.shared &&
			key.extra == k.extra && key.synth == k.synth && key.bytes != k.bytes {
			return el.Value.(*lruEntry).s
		}
	}
	return nil
}

// patchFromSibling builds the schedule for cfg by rescaling sib, a cached
// schedule for the same shape at a different message size. It reports ok =
// false — caller falls back to a full build — whenever the shapes turn out
// not to match after all.
func patchFromSibling(sib *Schedule, cfg Config) (*Schedule, bool) {
	if cfg.Graph == nil || cfg.Bytes <= 0 {
		return nil, false
	}
	nodes := cfg.nodes()
	if len(nodes) < 2 {
		return nil, false
	}
	part, err := cfg.partition(nodes)
	if err != nil {
		return nil, false
	}
	// Tree algorithms pick their chunk count from the message size (KOpt)
	// when not pinned; a different count means a different transfer DAG.
	if part.NumChunks() != sib.Partition.NumChunks() {
		return nil, false
	}
	// The clone copies the op slice once and shares the sibling's deps
	// CSR: only bytes change. The patch assumes every transfer moves
	// exactly its chunk's bytes. All current builders satisfy this; if a
	// future one does not, bail to the full build rather than mis-scale.
	s := sib.clone()
	s.Partition = part
	for i := range s.ops {
		op := &s.ops[i]
		if op.Marker() {
			continue
		}
		if op.Bytes != sib.Partition.Sizes[op.Chunk] {
			return nil, false
		}
		op.Bytes = part.Sizes[op.Chunk]
	}
	if !schedcheck.CheckStructure(s.Program()).OK() {
		return nil, false
	}
	s.stamp()
	return s, true
}
