package collective

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"ccube/internal/chunk"
	"ccube/internal/schedcheck"
)

// One record per op graph: the transfer DAG of every built-in algorithm is
// a function of the topology, the participant set, the ring or tree
// embedding, the sharing flag and the *resolved* chunk count. The message
// size only sets each chunk's bytes, and an op carries no byte count — a
// transfer moves its chunk's size, Partition.Sizes[Chunk]. A synthesized
// schedule's DAG is likewise a function of the topology, the synthesis
// config and the tree and chunk counts its compiler's search picked. So
// the package builds and proves each op graph once and keeps one record of
// it (opGraph), which every schedule over the graph points to
// (Schedule.g): the schedule it was verified in, its lowered skeleton
// (lower.go), and, once it enters a Cache, its shape, bytes, certificate,
// carrier and reference count.
//
// Headers: a miss whose shape matches a resident op graph is served by a
// new Schedule header — the new partition over that graph's ops,
// dependency CSR, stamp and record. Nothing is cloned, rescaled or
// re-checked. The synthesis compiler asks for its header (Header) once its
// search has picked the tree and chunk counts, and hands it back to
// BuildWith, which finds it a header exactly when its record is resident.
//
// Carriers: a graph laid out in segments serves every smaller chunk count
// of its shape, by one certificate tested once, when its record first
// enters the cache (schedcheck.PhasePrefixes, O(ops+deps)). Two layouts
// qualify. The overlapped trees, C-Cube and synthesized forests are laid
// out chunk-major (chunkMajor; overlapped trees sharing a channel
// excepted, see buildTreeSchedule), each chunk one reduce-then-broadcast
// pass behind the same hops of chunk c-t: one phase, one chunk-closed
// segment, so a k-chunk schedule is the first n_k ops of any longer one of
// its shape. The separated tree and double tree are laid out tree by tree
// (buildSingleTree), each tree's reductions, its barrier, then its
// broadcasts: two phases, so a k-chunk schedule is, tree by tree, the
// first chunks of each phase with the barrier re-pointed to the last
// root-ready marker below k. A qualifying graph is a carrier, indexed
// without its chunk count, and the index keeps the resident carrier with
// the most chunks. A miss for k chunks, at most the carrier's K and at
// least its stream count, is served from it (opGraph.serve,
// schedcheck.Phases.Derive). When nothing moves — one phase, or k = K — it
// is a header over the carrier's first n_k ops: ops[:n_k:n_k],
// depOff[:n_k+1:n_k+1] and deps[:depOff[n_k]:depOff[n_k]], whose
// three-index slices mean no append can reach the carrier's arrays, with
// the carrier's record. Otherwise it is a copy of the kept ops, with ids,
// relay slots and dependencies shifted per phase (one linear pass, two
// allocations), and a record of its own: indexed under its exact shape so
// other sizes of it are headers over it, holding its carrier resident
// while it is. A request for more chunks than any resident carrier holds
// builds, and its graph becomes the carrier.
//
// Safety argument for skipping the static verifier on this path: the op
// graph was proved by Check when it was built (by its periodic window or
// in full, with the same Report either way), and every class Check proves
// — acyclicity, hazard ordering, link validity, conservation, in-order
// delivery — is a property of the op graph alone. Its one byte-dependent
// check is that every chunk holds a positive size, which the new partition
// meets by construction (chunk.Split, SplitAtMost and SplitRates emit no
// empty chunk). A carrier's derivative at k chunks, a prefix or a copy,
// answers every question Check asks about its kept ops as the whole graph
// does; the argument is in schedcheck's checks.go ("phase prefixes").
// TestIncrementalMatchesFullBuild pins the equivalence for the built-ins,
// prefixes and derived schedules included, and synth's
// TestHeaderMatchesColdCompile for synthesized schedules: a header or a
// derived schedule and a fresh build of the same config are deep-equal.

// anyChunks is the chunk count in the shape key of a carrier, which serves
// every chunk count up to its own.
const anyChunks = -1

// shape returns the key of k's op graph, the shape index's key: k without
// its size, and with chunks, the resolved chunk count (or anyChunks), in
// place of the requested one (0 requests the KOpt count, which depends on
// the size). A synthesized key also takes streams, the tree count the
// compiler picked; a built-in's stream count follows from the rest of its
// key, so its shape ignores streams.
func (k cacheKey) shape(chunks, streams int) cacheKey {
	k.bytes, k.chunks = 0, chunks
	if k.synth != "" {
		k.streams = streams
	}
	return k
}

// opGraph is one verified op graph's record, shared by the schedule it was
// verified in (or derived as) and every header over it.
type opGraph struct {
	s *Schedule

	// The lowering (lower.go): runs counts the runs that asked for the
	// skeleton before it existed; the second builds sk, once.
	runs  atomic.Int32
	lower sync.Once
	sk    atomic.Pointer[skeleton]

	// cache is the one Cache the record enters, claimed on its first entry
	// (claim), which classifies key, bytes and phases; serve sets cache,
	// key, bytes and carrier on a derived record. None of them changes
	// after.
	cache   atomic.Pointer[Cache]
	claimed sync.Once
	key     cacheKey
	bytes   int64
	// phases, for a carrier, certifies the layout its smaller chunk counts
	// are served from (serve). It is nil otherwise.
	phases *schedcheck.Phases
	// carrier, for a derived op graph, is the carrier it was copied from,
	// which it holds resident. It is nil otherwise.
	carrier *opGraph

	// Guarded by cache.mu: refs counts the LRU entries over the graph, and
	// it is indexed under key while it has some and no other graph of that
	// shape is (for a carrier: no other with as many chunks); skeleton is
	// the bytes of its lowered skeleton that the cache counts in its
	// retained bytes, 0 until the skeleton is built and counted
	// (countSkeleton).
	refs     int
	skeleton int64
}

// claim makes g c's on its first entry and classifies it under k, keyed
// as a carrier when it qualifies; a derived record is already both. It
// reports whether g is c's: a record entering a second cache stays the
// first one's.
func (g *opGraph) claim(c *Cache, k cacheKey) bool {
	g.claimed.Do(func() {
		if g.cache.Load() != nil {
			return
		}
		g.bytes, g.phases = opGraphBytes(g.s), schedcheck.PhasePrefixes(g.s.Program())
		chunks := g.s.Partition.NumChunks()
		if g.phases != nil {
			chunks = anyChunks
		}
		g.key = k.shape(chunks, g.s.Streams)
		g.cache.Store(c)
	})
	return g.cache.Load() == c
}

// serve returns the schedule with partition part served from g, under k.
// When g's certificate serves part's chunk count from g's own ops — g's
// count, or any count of a one-phase carrier — the schedule is a header
// over them: g's arrays, or their first chunks, with g's stamp and record.
// Otherwise it is a copy of g's kept ops with g's stamp and a derived
// record of its own, in g's cache, that holds g resident.
func (g *opGraph) serve(k cacheKey, part chunk.Partition) *Schedule {
	s := *g.s
	s.Partition = part
	if g.phases == nil {
		return &s
	}
	s.ops, s.depOff, s.deps = g.phases.Derive(g.s.Program(), part.NumChunks())
	if unsafe.SliceData(s.ops) == unsafe.SliceData(g.s.ops) {
		return &s
	}
	s.g = &opGraph{s: &s, key: k.shape(part.NumChunks(), s.Streams), bytes: opGraphBytes(&s), carrier: g}
	s.g.cache.Store(g.cache.Load())
	return &s
}

// opGraphBytes is what s's op graph occupies: its ops and dependency CSR.
func opGraphBytes(s *Schedule) int64 {
	return int64(len(s.ops))*int64(unsafe.Sizeof(schedcheck.Op{})) + 4*int64(len(s.depOff)+len(s.deps))
}

// shapePartition returns the partition Build would use for cfg, or false
// when Build would fail on cfg, which then takes the full build to report
// its error.
func shapePartition(cfg Config) (chunk.Partition, bool) {
	if cfg.Bytes <= 0 {
		return chunk.Partition{}, false
	}
	nodes := cfg.nodes()
	if len(nodes) < 2 {
		return chunk.Partition{}, false
	}
	part, err := cfg.partition(nodes)
	return part, err == nil
}

// residentLocked returns the resident op graph that serves chunks chunks
// of k's shape (streams trees, for a synthesized one): the graph of exactly
// that shape, or a carrier with at least chunks chunks, and chunks at least its stream count, which every build of the
// shape needs. Caller holds c.mu.
func (c *Cache) residentLocked(k cacheKey, chunks, streams int) *opGraph {
	if g := c.shapes[k.shape(chunks, streams)]; g != nil {
		return g
	}
	g := c.shapes[k.shape(anyChunks, streams)]
	if g == nil || chunks > g.s.Partition.NumChunks() || chunks < max(g.s.Streams, 1) {
		return nil
	}
	return g
}

// fromShape serves the miss on k with partition part from a resident op
// graph of its shape, and caches the result under k: a header, or a
// schedule derived from a carrier. It returns nil, and changes nothing,
// when no such op graph is resident.
func (c *Cache) fromShape(k cacheKey, part chunk.Partition) *Schedule {
	c.mu.Lock()
	g := c.residentLocked(k, part.NumChunks(), 0)
	c.mu.Unlock()
	if g == nil {
		return nil
	}
	// Serve outside the lock: the op graph is immutable, a copy of it
	// takes a linear pass, and the entry refs it again once inserted.
	s := g.serve(k, part)
	c.mu.Lock()
	c.misses++
	c.incremental++
	evicted := c.insertLocked(k, s)
	c.mu.Unlock()
	mCacheEvictions.Add(int64(evicted))
	return s
}

// Header returns a schedule with partition part served from the resident
// op graph of the synthesized shape cfg, streams trees and part's chunk
// count — or from a resident carrier of that shape with more —, or nil
// when none is resident, the cache is disabled or part has an empty chunk
// (the caller then assembles, and the proof reports it). Like a built-in's
// same-shape miss, it re-checks nothing: see the safety argument above. It
// caches and counts nothing either; the compiler returns it to BuildWith,
// which caches it with its record.
func (c *Cache) Header(cfg Config, streams int, part chunk.Partition) *Schedule {
	if !cacheable(cfg) || slices.ContainsFunc(part.Sizes, func(size int64) bool { return size <= 0 }) {
		return nil
	}
	k := c.key(cfg)
	c.mu.Lock()
	var g *opGraph
	if !c.disabled {
		g = c.residentLocked(k, part.NumChunks(), streams)
	}
	c.mu.Unlock()
	if g == nil {
		return nil
	}
	return g.serve(k, part)
}

// ref records one more LRU entry over g, one of c's records. A graph
// entering the cache is indexed unless the index holds one of its shape
// with at least as many chunks, and a derived one holds its carrier. Its
// lowered skeleton, if built, counts from then on. Caller holds c.mu.
func (c *Cache) ref(g *opGraph) {
	if g.refs == 0 {
		c.retained += g.bytes
		if cur := c.shapes[g.key]; cur == nil || cur.s.Partition.NumChunks() < g.s.Partition.NumChunks() {
			c.shapes[g.key] = g
		}
		if g.carrier != nil {
			c.ref(g.carrier)
		}
	}
	g.refs++
	c.countSkeletonLocked(g)
}

// unref drops one LRU entry's reference to g, and g itself from the shape
// index with its last one, releasing its carrier. Caller holds c.mu.
func (c *Cache) unref(g *opGraph) {
	g.refs--
	if g.refs == 0 {
		c.retained -= g.bytes + g.skeleton
		g.skeleton = 0
		if c.shapes[g.key] == g {
			delete(c.shapes, g.key)
		}
		if g.carrier != nil {
			c.unref(g.carrier)
		}
	}
}

// countSkeletonLocked adds g's lowered skeleton to the retained bytes once
// it is built, if g is resident. Caller holds c.mu.
func (c *Cache) countSkeletonLocked(g *opGraph) {
	if sk := g.sk.Load(); sk != nil && g.refs > 0 && g.skeleton == 0 {
		g.skeleton = sk.bytes()
		c.retained += g.skeleton
	}
}

// countSkeleton is countSkeletonLocked for the run that just built g's
// skeleton.
func (c *Cache) countSkeleton(g *opGraph) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.countSkeletonLocked(g)
	c.retainedGauge.Set(float64(c.retained))
}

// RetainedBytes reports the bytes of the op graphs the cache holds — ops
// plus dependency CSR, and the lowered skeleton (lower.go) of each that has
// run twice, at its exact size — counting a graph shared by several message
// sizes once: a derived graph counts its own ops and skeleton, and its
// carrier once. Headers and partitions are not counted.
func (c *Cache) RetainedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retained
}
