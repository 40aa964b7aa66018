package collective

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"ccube/internal/metrics"
	"ccube/internal/topology"
)

// Cache memoizes compiled collective schedules. Building a schedule —
// embedding logical trees or rings into the physical topology, splitting the
// message into chunks, emitting tens of thousands of transfers — and then
// proving it correct with the static verifier is the dominant per-cell setup
// cost of every experiment sweep, and it is pure: the output depends only on
// the topology's content (structure, bandwidths, health state) and the
// operation parameters. The cache keys on exactly that — a
// topology.Graph.Fingerprint plus (algorithm, participants, bytes, chunk
// count, sharing flag) — so a hit returns an already-built,
// already-schedcheck-verified schedule and skips both costs.
//
// Correctness properties:
//
//   - Misses verify: every constructor proves its schedule with
//     schedcheck.Check before it returns (a periodic schedule by its
//     certified window, any other one in full; the Report is the same), so
//     a schedule enters the cache proved, and hits never skip a check that
//     was not already performed on identical inputs.
//   - Staleness is loud: cached schedules are stamped with the fingerprint
//     they were verified against. Mutating the topology (KillChannel,
//     DegradeChannel) changes its fingerprint, so the next lookup misses and
//     rebuilds — and executing a previously returned schedule anyway fails
//     with *StaleScheduleError instead of silently timing traffic over a
//     changed fabric.
//   - Shared safely: schedules are immutable after construction (execution
//     instantiates into fresh des.Graphs; repairs clone), so one cached
//     schedule may be executed by many goroutines concurrently. The cache
//     itself is mutex-guarded.
//
// The graph pointer is part of the key: a schedule holds a reference to the
// graph it was built on, and handing it to a caller operating on a different
// (even content-identical) graph would make later health mutations on the
// caller's graph invisible to repair and staleness checks.
//
// Capacity is bounded with LRU eviction. Without a bound, health-mutating
// sweeps (ext-faults kills/degrades mint a fresh fingerprint per mutation)
// grow the process-wide cache monotonically; dead fingerprints can never hit
// again, so evicting the least-recently-used entry is free in practice.
type Cache struct {
	mu        sync.Mutex
	entries   map[cacheKey]*list.Element // -> *lruEntry element in lru
	lru       *list.List                 // front = MRU
	capacity  int                        // max entries; <= 0 means unbounded
	hits      uint64
	misses    uint64
	evictions uint64
	disabled  bool

	// incremental counts misses served from a resident op graph of their
	// shape, a header over it or a copy derived from a carrier
	// (incremental.go), instead of a full build.
	incremental uint64

	// shapes indexes the resident op graphs by shape, a carrier without
	// its chunk count; an entry lives exactly
	// as long as some LRU entry references its graph (a carrier, also
	// while a graph derived from it is resident), or until a carrier with
	// more chunks takes its place. retained is the bytes of every resident
	// op graph, each counted once, and retainedGauge, when set, publishes
	// it.
	shapes        map[cacheKey]*opGraph
	retained      int64
	retainedGauge *metrics.Gauge

	// memo holds the values Memo keeps, by key with no size or chunk
	// count, in an LRU list of *memoEntry bounded at memoCapacity (front =
	// MRU).
	memo    map[cacheKey]*list.Element
	memoLRU *list.List
}

// memoCapacity bounds the values a Cache memoizes (Memo). A value is
// keyed by a graph's fingerprint, so health churn mints new keys; the
// bound keeps the dead ones from piling up.
const memoCapacity = 32

type memoEntry struct {
	key cacheKey
	v   any
}

type lruEntry struct {
	key cacheKey
	s   *Schedule
}

// DefaultCacheCapacity bounds DefaultCache (and every NewCache). Sized for
// the experiment suite: the full figure sweep uses well under a hundred
// distinct (topology fingerprint, operation) keys, so the bound only bites
// on pathological fingerprint churn.
const DefaultCacheCapacity = 256

type cacheKey struct {
	graph  *topology.Graph
	fp     uint64
	alg    Algorithm
	bytes  int64
	chunks int
	shared bool
	extra  string // canonical encoding of Nodes / ring-order overrides
	synth  string // synthesis-config fingerprint (AlgSynth only, else "")
	// streams is a synthesized shape's tree count, set only in shape-index
	// keys (see shape).
	streams int
}

// NewCache returns an empty schedule cache bounded at DefaultCacheCapacity
// entries.
func NewCache() *Cache {
	return &Cache{
		entries:  make(map[cacheKey]*list.Element),
		lru:      list.New(),
		capacity: DefaultCacheCapacity,
		shapes:   make(map[cacheKey]*opGraph),
		memo:     make(map[cacheKey]*list.Element),
		memoLRU:  list.New(),
	}
}

// DefaultCache is the process-wide schedule cache used by BuildCached and
// RunCtx. Experiment sweeps share it across goroutines. It publishes its
// retained op-graph bytes as collective_cache_retained_bytes.
var DefaultCache = func() *Cache {
	c := NewCache()
	c.retainedGauge = mCacheRetained
	return c
}()

// BuildCached builds the configured collective through the DefaultCache.
func BuildCached(cfg Config) (*Schedule, error) { return DefaultCache.Build(cfg) }

// cacheable reports whether the configuration can be keyed; Tree overrides
// carry arbitrary logical structure and bypass the cache.
func cacheable(cfg Config) bool { return cfg.Graph != nil && cfg.Trees == nil }

func (c *Cache) key(cfg Config) cacheKey {
	var sb strings.Builder
	for _, n := range cfg.Nodes {
		sb.WriteByte('n')
		sb.WriteString(strconv.Itoa(int(n)))
	}
	for _, ord := range cfg.RingOrders {
		sb.WriteByte('r')
		for _, i := range ord {
			sb.WriteByte(',')
			sb.WriteString(strconv.Itoa(i))
		}
	}
	return cacheKey{
		graph:  cfg.Graph,
		fp:     cfg.Graph.Fingerprint(),
		alg:    cfg.Algorithm,
		bytes:  cfg.Bytes,
		chunks: cfg.Chunks,
		shared: cfg.AllowSharedChannels,
		extra:  sb.String(),
		synth:  cfg.SynthKey,
	}
}

// Build returns the memoized schedule for cfg, constructing and verifying it
// on a miss. The returned schedule is shared and must be treated as
// immutable (every execution path already does); RepairSchedule clones
// before it rewrites transfers.
//
// A miss whose shape — everything but the message size, with the chunk
// count resolved — matches a resident op graph is served by a new header
// over that graph: the new partition and nothing else, with no
// construction and no proof to redo. A graph laid out in segments (one
// certificate, schedcheck.PhasePrefixes) is a carrier, indexed without its
// chunk count, and serves every count up to its own: a chunk-major one
// (the overlapped tree, C-Cube) as a header over its first chunks; a
// separated tree or double tree, at a smaller count, by a derived
// schedule: a copy of each tree's first chunks of both phases with the
// barrier re-pointed, not re-proved, whose entry holds the carrier
// resident. A miss for more chunks than any resident carrier holds builds
// the new, larger carrier (see incremental.go); any other miss is a full build
// and its proof. So every schedule the cache returns was proved in this
// process: it is a build, a header over an op graph built here, or a copy
// derived from one.
func (c *Cache) Build(cfg Config) (*Schedule, error) {
	return c.buildThrough(cfg, func() (*Schedule, error) { return Build(cfg) })
}

// BuildWith is Build for schedules the package cannot construct itself:
// builder runs on a full miss and its result is cached exactly like a
// built-in's. Its schedule is verified and stamped by construction — an
// external one can only come from AssembleForest or Assemble, or is a
// Header over a resident op graph.
// internal/synth uses it to give compiled schedules the same memoization as
// the hand-written algorithms; the cache key additionally carries
// cfg.SynthKey so distinct synthesis configs never alias. The cache cannot
// derive a synthesized partition from cfg, since the compiler's search
// picks it, so builder asks for a same-shape header itself (Header); a
// result that is one shares, and is counted with, its resident op graph.
func (c *Cache) BuildWith(cfg Config, builder func() (*Schedule, error)) (*Schedule, error) {
	return c.buildThrough(cfg, builder)
}

// buildThrough resolves cfg through the cache. builder returns a
// schedule its constructor verified and stamped. Uncacheable configurations
// (Trees overrides) and a disabled cache call builder directly, so they
// are verified and stamped the same way and only skip memoization.
func (c *Cache) buildThrough(cfg Config, builder func() (*Schedule, error)) (*Schedule, error) {
	if !cacheable(cfg) {
		return builder()
	}
	k := c.key(cfg)

	c.mu.Lock()
	if c.disabled {
		c.mu.Unlock()
		return builder()
	}
	if el, ok := c.entries[k]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		// Read under the lock: a concurrent duplicate insert rewrites the
		// entry's schedule.
		s := el.Value.(*lruEntry).s
		c.mu.Unlock()
		mCacheHits.Inc()
		return s, nil
	}
	c.mu.Unlock()

	if part, ok := shapePartition(cfg); ok {
		if s := c.fromShape(k, part); s != nil {
			mCacheMisses.Inc()
			mCacheIncremental.Inc()
			return s, nil
		}
	}

	// Resolve the miss outside the lock: construction and verification can
	// be expensive, and independent cells of a parallel sweep miss on
	// different keys. A concurrent duplicate resolution of the same key is
	// benign — all results are identical, and the second insert wins.
	s, err := builder()
	if err != nil {
		return nil, err
	}

	// A result whose record is resident is a header over that op graph, a
	// synthesized Header's: it counts as an incremental miss.
	s = c.admit(k, s)
	c.mu.Lock()
	if s.g.refs > 0 {
		c.incremental++
		mCacheIncremental.Inc()
	}
	c.misses++
	evicted := c.insertLocked(k, s)
	c.mu.Unlock()
	mCacheMisses.Inc()
	mCacheEvictions.Add(int64(evicted))
	return s, nil
}

// admit returns s as it enters c, with a record of c's. A record's first
// entry claims and classifies it outside the lock, since the certificate
// walks every op and dependency; an unadopted schedule gets its record
// here. A record another cache holds stays that cache's, so s then enters
// as a header over the same ops with a record of its own.
func (c *Cache) admit(k cacheKey, s *Schedule) *Schedule {
	if s.g == nil {
		s.g = &opGraph{s: s}
	}
	if !s.g.claim(c, k) {
		h := *s
		h.g = &opGraph{s: &h}
		h.g.claim(c, k)
		s = &h
	}
	return s
}

// insertLocked inserts (or refreshes) an entry as most-recently-used and
// evicts from the LRU end while the cache is over capacity, returning how
// many entries were dropped. Caller holds c.mu.
func (c *Cache) insertLocked(k cacheKey, s *Schedule) (evicted int) {
	c.ref(s.g)
	defer c.retainedGauge.Set(float64(c.retained))
	if el, ok := c.entries[k]; ok {
		// A concurrent duplicate build of the same key landed first; keep
		// the newer result (both are identical) and just refresh recency.
		e := el.Value.(*lruEntry)
		c.unref(e.s.g)
		e.s = s
		c.lru.MoveToFront(el)
		return 0
	}
	c.entries[k] = c.lru.PushFront(&lruEntry{key: k, s: s})
	for c.capacity > 0 && c.lru.Len() > c.capacity {
		oldest := c.lru.Remove(c.lru.Back()).(*lruEntry)
		delete(c.entries, oldest.key)
		c.unref(oldest.s.g)
		c.evictions++
		evicted++
	}
	return evicted
}

// Evict drops cfg's entry, if the cache holds one, as the capacity bound
// would, without counting an eviction: its op graph leaves the shape index
// with the last entry over it. The bench of a derived miss uses it, so each
// of its requests misses again instead of finding the last one's op graph.
func (c *Cache) Evict(cfg Config) {
	if !cacheable(cfg) {
		return
	}
	k := c.key(cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		delete(c.entries, k)
		c.unref(c.lru.Remove(el).(*lruEntry).s.g)
		c.retainedGauge.Set(float64(c.retained))
	}
}

// Stats reports cache hits and misses since construction (or the last
// Clear). Errors count toward neither; evicted entries keep their recorded
// hits and misses.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports how many entries the capacity bound has dropped since
// construction (or the last Clear).
func (c *Cache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// IncrementalBuilds reports how many misses were served from a resident op
// graph of their shape, a header over it or a copy derived from a carrier,
// instead of a full build, since construction (or the last Clear).
func (c *Cache) IncrementalBuilds() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incremental
}

// Len reports the number of cached schedules.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SetEnabled turns memoization on or off. Disabled, every Build and
// BuildWith runs its builder — construction plus verification — with no
// lookup. ccube-bench uses this for its reference timing.
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disabled = !on
}

// Memo returns the value kept for cfg's graph (pointer and fingerprint, so
// a health change misses), participants, algorithm and synthesis key —
// never its size or chunk count —, calling build on a miss and keeping
// what it returns. It holds a compiler's size-independent work over one
// fabric: internal/synth keeps its packed forest and chunk passes here.
// The values are shared by every caller and must be immutable. An error
// is returned and nothing kept; concurrent misses may each build, and the
// first value kept is the one every later call gets. A disabled cache and
// an uncacheable cfg call build every time and keep nothing; Clear drops
// every value. At most memoCapacity values are kept, the least
// recently used dropped first.
func (c *Cache) Memo(cfg Config, build func() (any, error)) (any, error) {
	if !cacheable(cfg) {
		return build()
	}
	cfg.Bytes, cfg.Chunks = 0, 0
	k := c.key(cfg)
	c.mu.Lock()
	if c.disabled {
		c.mu.Unlock()
		return build()
	}
	if el, ok := c.memo[k]; ok {
		c.memoLRU.MoveToFront(el)
		v := el.Value.(*memoEntry).v
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	v, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.memo[k]; ok {
		return el.Value.(*memoEntry).v, nil
	}
	if c.disabled {
		return v, nil
	}
	c.memo[k] = c.memoLRU.PushFront(&memoEntry{key: k, v: v})
	if c.memoLRU.Len() > memoCapacity {
		delete(c.memo, c.memoLRU.Remove(c.memoLRU.Back()).(*memoEntry).key)
	}
	return v, nil
}

// Clear drops every cached schedule and memoized value (Memo) and resets
// the statistics. Benchmarks use it to measure cold-cache builds.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		c.unref(el.Value.(*lruEntry).s.g)
	}
	c.entries = make(map[cacheKey]*list.Element)
	c.lru.Init()
	c.shapes = make(map[cacheKey]*opGraph)
	c.memo = make(map[cacheKey]*list.Element)
	c.memoLRU.Init()
	c.retained = 0
	c.retainedGauge.Set(0)
	c.hits, c.misses, c.evictions, c.incremental = 0, 0, 0, 0
}
