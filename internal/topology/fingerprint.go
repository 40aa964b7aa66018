package topology

import "math"

// fnv64 constants (FNV-1a), inlined so fingerprinting allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	h = mix64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Fingerprint returns a content hash of the topology: node identities,
// every channel's endpoints, nominal bandwidth, latency and tag, and —
// crucially — the mutable health state (down, degrade factor). Two graphs
// with the same fingerprint are indistinguishable to a schedule builder, so
// the fingerprint is the cache key for compiled collective schedules
// (collective.Cache), and a fingerprint change (e.g. after KillChannel or
// DegradeChannel) is how a cached schedule detects it has gone stale.
//
// The hash is FNV-1a over a canonical field order; it is deterministic
// across processes and allocation-free. It is computed once and memoized on
// the graph: every method that changes hashed state (AddNode, AddChannel,
// KillChannel, DegradeChannel, RestoreChannel, SetHealth, RestoreHealth)
// clears the memo, so a cache lookup or a pre-run staleness check costs one
// atomic load until the topology next changes. That relies on the exported
// Node and Channel fields being construction-time only (see Graph.Nodes and
// Graph.Channel). Concurrent readers may race to fill the memo; they store
// the same value.
//
// The value depends only on content, never on the process: nodes in id
// order contribute (kind, name), then channels in id order contribute
// (from, to, bandwidth bits, latency, tag, down flag, degrade-factor bits),
// each length-prefixed string mixed byte-wise. TestFingerprintGolden pins
// the current value, so a change to the serialization is deliberate.
func (g *Graph) Fingerprint() uint64 {
	if fp := g.fp.Load(); fp != 0 {
		return fp
	}
	fp := g.fingerprint()
	g.fp.Store(fp)
	return fp
}

// fingerprint hashes the graph from scratch. A graph whose hash is 0 is
// never memoized and rehashes on every call; that is one graph in 2^64.
func (g *Graph) fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = mix64(h, uint64(len(g.nodes)))
	for i := range g.nodes {
		n := &g.nodes[i]
		h = mix64(h, uint64(n.Kind))
		h = mixString(h, n.Name)
	}
	h = mix64(h, uint64(len(g.channels)))
	for i := range g.channels {
		c := &g.channels[i]
		h = mix64(h, uint64(c.From))
		h = mix64(h, uint64(c.To))
		h = mix64(h, math.Float64bits(c.Bandwidth))
		h = mix64(h, uint64(c.Latency))
		h = mixString(h, c.Tag)
		var down uint64
		if c.down {
			down = 1
		}
		h = mix64(h, down)
		h = mix64(h, math.Float64bits(c.DegradeFactor()))
	}
	return h
}
