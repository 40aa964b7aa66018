package collective

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"ccube/internal/collective/store"
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
//   - Misses verify: a schedule enters the cache only after passing the full
//     static verifier (Schedule.Validate), so hits never skip a check that
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
//
// Entries built against an unhealthy fabric (any channel down or degraded at
// build time) live on their own small LRU with its own quota. Fault churn
// mints a fresh fingerprint per mutation, and under the old single-list
// policy a 1000-event churn sweep would cycle hundreds of one-shot faulted
// fingerprints through the shared list, evicting the long-lived healthy
// entries every sweep and tanking the clean hit rate. Quarantining faulted
// fingerprints bounds the damage: churn evicts other churn, never the
// healthy working set.
type Cache struct {
	mu         sync.Mutex
	entries    map[cacheKey]*list.Element // -> *lruEntry element in lru or faulted
	lru        *list.List                 // healthy-fabric entries; front = MRU
	faulted    *list.List                 // unhealthy-fabric entries; front = MRU
	capacity   int                        // max healthy entries; <= 0 means unbounded
	faultedCap int                        // max faulted entries; <= 0 means unbounded
	hits       uint64
	misses     uint64
	evictions  uint64
	disabled   bool

	// disk is the optional second cache level (SetStore): a content-
	// addressed on-disk store consulted on memory misses and written through
	// on builds, so a fresh process starts warm. Entries loaded from it are
	// re-verified by the full static checker before use (verify-on-load in
	// loadFromStore) — the miss-verify invariant holds per process, not per
	// store directory.
	disk *store.Store

	// incremental counts misses served by patching a same-shape cached
	// sibling (incremental.go) instead of a full build.
	incremental uint64
}

type lruEntry struct {
	key     cacheKey
	s       *Schedule
	faulted bool // which list the entry lives on
}

// DefaultCacheCapacity bounds DefaultCache (and every NewCache). Sized for
// the experiment suite: the full figure sweep uses well under a hundred
// distinct (topology fingerprint, operation) keys, so the bound only bites
// on pathological fingerprint churn.
const DefaultCacheCapacity = 256

// DefaultFaultedCacheCapacity bounds the faulted-fingerprint side list.
// Faulted entries are near-one-shot (each distinct kill/degrade combination
// is its own fingerprint), so the quota only needs to cover the handful of
// fault states a single experiment cell revisits — repair loops re-building
// against the same promoted-dead fabric — not a churn sweep's whole history.
const DefaultFaultedCacheCapacity = 32

type cacheKey struct {
	graph  *topology.Graph
	fp     uint64
	alg    Algorithm
	bytes  int64
	chunks int
	shared bool
	extra  string // canonical encoding of Nodes / ring-order overrides
	synth  string // synthesis-config fingerprint (AlgSynth only, else "")
}

// NewCache returns an empty schedule cache bounded at DefaultCacheCapacity
// healthy entries plus DefaultFaultedCacheCapacity faulted ones.
func NewCache() *Cache {
	return &Cache{
		entries:    make(map[cacheKey]*list.Element),
		lru:        list.New(),
		faulted:    list.New(),
		capacity:   DefaultCacheCapacity,
		faultedCap: DefaultFaultedCacheCapacity,
	}
}

// DefaultCache is the process-wide schedule cache used by BuildCached and
// RunCtx. Experiment sweeps share it across goroutines.
var DefaultCache = NewCache()

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
	orders := cfg.RingOrders
	if orders == nil && cfg.RingOrder != nil {
		orders = [][]int{cfg.RingOrder}
	}
	for _, ord := range orders {
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
// immutable (every execution path already does); use Schedule.Clone before
// rewriting transfers.
//
// A miss resolves through up to three levels, cheapest first:
//
//  1. disk store (if attached): decode + verify-on-load an entry written by
//     a previous process — skips construction, re-runs the proof.
//  2. incremental patch: a cached sibling differing only in message size is
//     cloned and its transfer byte counts rescaled — skips construction and
//     the byte-independent parts of the proof (see incremental.go).
//  3. full build + full verification.
//
// Levels 2 and 3 write the result through to the disk store, so the next
// process starts at level 1.
func (c *Cache) Build(cfg Config) (*Schedule, error) {
	return c.buildThrough(cfg, func() (*Schedule, error) {
		s, err := Build(cfg)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s, nil
	})
}

// BuildWith is Build for schedules the package cannot construct itself:
// builder runs on a full miss (memory, disk, no patchable sibling) and its
// result is stamped, cached, and written through to the disk store exactly
// like a built-in's. The builder must return a verified schedule — an
// external one can only come from Assemble, which verifies before it
// returns. internal/synth uses it to give compiled schedules the same
// memoization as the hand-written algorithms; the cache key additionally
// carries cfg.SynthKey so distinct synthesis configs never alias. Sibling
// patching is skipped — the cache cannot derive an external builder's
// partition shape.
func (c *Cache) BuildWith(cfg Config, builder func() (*Schedule, error)) (*Schedule, error) {
	return c.buildThrough(cfg, builder)
}

// buildThrough resolves cfg through the cache levels. builder must return a
// verified schedule; the cache only stamps what it stores. Uncacheable
// configurations (Trees overrides) and a disabled cache call builder
// directly, so they are verified the same way and only skip memoization.
func (c *Cache) buildThrough(cfg Config, builder func() (*Schedule, error)) (*Schedule, error) {
	if !cacheable(cfg) {
		return builder()
	}
	k := c.key(cfg)
	// Health is part of the fingerprint, so the faulted flag is as stable as
	// the key itself: a key minted against a wounded fabric can only ever hit
	// again while the fabric is in exactly that state.
	faulted := !cfg.Graph.Healthy()

	c.mu.Lock()
	if c.disabled {
		c.mu.Unlock()
		return builder()
	}
	if el, ok := c.entries[k]; ok {
		c.hits++
		e := el.Value.(*lruEntry)
		if e.faulted {
			c.faulted.MoveToFront(el)
		} else {
			c.lru.MoveToFront(el)
		}
		c.mu.Unlock()
		mCacheHits.Inc()
		return e.s, nil
	}
	disk := c.disk
	var sib *Schedule
	if k.synth == "" {
		// Sibling patching derives the partition shape from cfg, which only
		// works for the built-in algorithms; synthesized shapes depend on the
		// compiler's size-driven search, so synth keys always build fully.
		sib = c.shapeSiblingLocked(k)
	}
	c.mu.Unlock()

	// Resolve the miss outside the lock: construction and verification can
	// be expensive, and independent cells of a parallel sweep miss on
	// different keys. A concurrent duplicate resolution of the same key is
	// benign — all results are identical, and the second insert wins.
	var s *Schedule
	var fromDisk, patched bool
	if disk != nil {
		s, fromDisk = c.loadFromStore(disk, k)
	}
	if s == nil && sib != nil {
		s, patched = patchFromSibling(sib, cfg)
	}
	if s == nil {
		var err error
		s, err = builder()
		if err != nil {
			return nil, err
		}
		s.stamp()
	}
	if disk != nil && !fromDisk {
		// Write-through. A failed write (full disk, permissions) costs only
		// warmth, never correctness — ignore it.
		_ = disk.Put(storeKey(k), encodeSchedule(s))
	}

	c.mu.Lock()
	c.misses++
	if patched {
		c.incremental++
	}
	evicted := c.insertLocked(k, s, faulted)
	c.mu.Unlock()
	mCacheMisses.Inc()
	if patched {
		mCacheIncremental.Inc()
	}
	mCacheEvictions.Add(int64(evicted))
	return s, nil
}

// insertLocked inserts (or refreshes) an entry as most-recently-used on its
// list — healthy or faulted — and evicts from that list's LRU end while it
// is over its own capacity, returning how many entries were dropped. Faulted
// inserts can never evict healthy entries, and vice versa. Caller holds c.mu.
func (c *Cache) insertLocked(k cacheKey, s *Schedule, faulted bool) (evicted int) {
	if el, ok := c.entries[k]; ok {
		// A concurrent duplicate build of the same key landed first; keep
		// the newer result (both are identical) and just refresh recency.
		e := el.Value.(*lruEntry)
		e.s = s
		if e.faulted {
			c.faulted.MoveToFront(el)
		} else {
			c.lru.MoveToFront(el)
		}
		return 0
	}
	l, limit := c.lru, c.capacity
	if faulted {
		l, limit = c.faulted, c.faultedCap
	}
	c.entries[k] = l.PushFront(&lruEntry{key: k, s: s, faulted: faulted})
	return c.evictLocked(l, limit)
}

// evictLocked drops entries from l's LRU end until it fits limit. Caller
// holds c.mu.
func (c *Cache) evictLocked(l *list.List, limit int) (evicted int) {
	for limit > 0 && l.Len() > limit {
		oldest := l.Back()
		e := oldest.Value.(*lruEntry)
		l.Remove(oldest)
		delete(c.entries, e.key)
		c.evictions++
		evicted++
	}
	return evicted
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

// IncrementalBuilds reports how many misses were served by patching a
// same-shape cached sibling instead of a full build, since construction (or
// the last Clear).
func (c *Cache) IncrementalBuilds() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incremental
}

// SetStore attaches (or, with nil, detaches) an on-disk schedule store as
// the cache's second level. Safe to call while the cache is in use; in-
// flight misses resolve against whichever store they captured.
func (c *Cache) SetStore(st *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = st
}

// Store returns the attached on-disk store, or nil.
func (c *Cache) Store() *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// Capacity returns the current entry bound (<= 0 means unbounded).
func (c *Cache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// SetCapacity changes the healthy-entry bound and immediately evicts down to
// it; n <= 0 removes the bound. The faulted side list keeps its own quota
// (SetFaultedCapacity).
func (c *Cache) SetCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	mCacheEvictions.Add(int64(c.evictLocked(c.lru, c.capacity)))
}

// FaultedCapacity returns the faulted-entry bound (<= 0 means unbounded).
func (c *Cache) FaultedCapacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faultedCap
}

// SetFaultedCapacity changes the faulted-entry bound and immediately evicts
// down to it; n <= 0 removes the bound.
func (c *Cache) SetFaultedCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faultedCap = n
	mCacheEvictions.Add(int64(c.evictLocked(c.faulted, c.faultedCap)))
}

// FaultedLen reports how many cached schedules were built against an
// unhealthy fabric (the side list's current population).
func (c *Cache) FaultedLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faulted.Len()
}

// Len reports the number of cached schedules.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// SetEnabled turns memoization on or off. Disabled, every Build and
// BuildWith runs its builder — construction plus verification — with no
// lookup and no store. ccube-bench uses this for its reference timing.
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disabled = !on
}

// Clear drops every cached schedule and resets the statistics. Benchmarks
// use it to measure cold-cache builds. The attached disk store (if any) is
// left untouched — its entries and counters belong to the store, which has
// its own Clear and ResetStats.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]*list.Element)
	c.lru.Init()
	c.faulted.Init()
	c.hits, c.misses, c.evictions, c.incremental = 0, 0, 0, 0
}
