// Package topology models physical interconnect topologies as graphs of
// nodes joined by directed channels.
//
// A bidirectional physical link (e.g. an NVLink) is represented as two
// directed Channels, one per direction, because the paper's central
// observation (#2) is that a tree AllReduce leaves one direction of every
// link idle during each phase. Parallel channels between the same node pair
// are first-class: the DGX-1 hybrid mesh-cube has duplicated NVLinks
// (GPU2-GPU3, GPU6-GPU7) that C-Cube exploits for its double-tree overlap.
package topology

import (
	"fmt"
	"sync/atomic"

	"ccube/internal/des"
)

// NodeID identifies a node (GPU or switch) within a Graph.
type NodeID int

// ChannelID identifies a directed channel within a Graph.
type ChannelID int

// NodeKind distinguishes endpoints from forwarding elements.
type NodeKind int

const (
	// GPU is a compute endpoint that can source, sink, and reduce data.
	GPU NodeKind = iota
	// Switch is a forwarding-only element used by scale-out topologies.
	Switch
)

func (k NodeKind) String() string {
	switch k {
	case GPU:
		return "gpu"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is a vertex in the physical topology.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// Channel is a directed, serialized communication resource. Bandwidth is in
// bytes per second; Latency is the per-transfer fixed cost (the alpha term).
type Channel struct {
	ID        ChannelID
	From, To  NodeID
	Bandwidth float64 // bytes/second, nominal (healthy)
	Latency   des.Time
	Tag       string // e.g. "nvlink", "nvlink2" (second parallel link), "pcie"

	// Health state, mutated only through Graph.KillChannel / DegradeChannel /
	// RestoreChannel (the fault-injection layer).
	down    bool
	degrade float64 // bandwidth divisor; 0 or 1 = healthy

	// resName is the des.Resource name, formatted once at AddChannel time:
	// Resources() runs once per simulated execution, and per-call Sprintf
	// was a measurable slice of sweep time.
	resName string
}

// Down reports whether the channel has failed and refuses all traffic.
func (c *Channel) Down() bool { return c.down }

// ResourceName returns the stable name of the des.Resource that Resources()
// materializes for this channel ("ch3:gpu0->gpu1(nvlink)"). The metrics
// layer uses it as the per-channel label so utilization series line up with
// trace lanes.
func (c *Channel) ResourceName() string { return c.resName }

// DegradeFactor returns the bandwidth divisor in effect (1 when healthy).
func (c *Channel) DegradeFactor() float64 {
	if c.degrade <= 1 {
		return 1
	}
	return c.degrade
}

// EffectiveBandwidth returns the bandwidth after degradation.
func (c *Channel) EffectiveBandwidth() float64 { return c.Bandwidth / c.DegradeFactor() }

// TransferTime returns the alpha-beta cost of moving `bytes` over the
// channel: Latency + bytes/EffectiveBandwidth. Whether the channel is Down
// is the caller's concern (Schedule.Instantiate refuses down channels with a
// structured error); the cost of a hypothetical transfer is still defined.
func (c *Channel) TransferTime(bytes int64) des.Time {
	if bytes < 0 {
		panic(fmt.Sprintf("topology: negative transfer size %d", bytes))
	}
	sec := float64(bytes) / c.EffectiveBandwidth()
	return c.Latency + des.Time(sec*float64(des.Second))
}

// Graph is a physical topology: nodes plus directed channels. The structure
// is append-only — experiments never add or remove links from a built
// topology — but each channel carries mutable *health* state (down,
// degraded) that the fault-injection layer flips and restores.
//
// A Graph is safe for concurrent readers once built. Mutators (the Add*
// builders and the health setters) must not run concurrently with anything
// else on the same graph.
type Graph struct {
	nodes    []Node
	channels []Channel
	out      map[NodeID][]ChannelID
	in       map[NodeID][]ChannelID

	// fp memoizes Fingerprint (0 = not computed). Every mutator of nodes,
	// channels or channel health clears it.
	fp atomic.Uint64
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{
		out: make(map[NodeID][]ChannelID),
		in:  make(map[NodeID][]ChannelID),
	}
}

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.fp.Store(0)
	return id
}

// AddChannel appends a directed channel and returns its id.
func (g *Graph) AddChannel(from, to NodeID, bandwidth float64, latency des.Time, tag string) ChannelID {
	if !g.validNode(from) || !g.validNode(to) {
		panic(fmt.Sprintf("topology: channel %d->%d references unknown node", from, to))
	}
	if from == to {
		panic(fmt.Sprintf("topology: self-channel on node %d", from))
	}
	if bandwidth <= 0 {
		panic(fmt.Sprintf("topology: channel %d->%d has bandwidth %v", from, to, bandwidth))
	}
	if latency < 0 {
		panic(fmt.Sprintf("topology: channel %d->%d has negative latency", from, to))
	}
	id := ChannelID(len(g.channels))
	g.channels = append(g.channels, Channel{
		ID: id, From: from, To: to, Bandwidth: bandwidth, Latency: latency, Tag: tag,
		resName: fmt.Sprintf("ch%d:%s->%s(%s)", id, g.nodes[from].Name, g.nodes[to].Name, tag),
	})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.fp.Store(0)
	return id
}

// AddBidi adds a bidirectional link as two directed channels and returns
// their ids (forward, reverse).
func (g *Graph) AddBidi(a, b NodeID, bandwidth float64, latency des.Time, tag string) (ChannelID, ChannelID) {
	f := g.AddChannel(a, b, bandwidth, latency, tag)
	r := g.AddChannel(b, a, bandwidth, latency, tag)
	return f, r
}

func (g *Graph) validNode(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumChannels reports the directed channel count.
func (g *Graph) NumChannels() int { return len(g.channels) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Channel returns the channel with the given id. The pointer is for reading:
// From, To, Bandwidth, Latency and Tag are construction-time only, and
// health changes go through the Graph's methods. Writing a field through it
// would leave the memoized Fingerprint stale.
func (g *Graph) Channel(id ChannelID) *Channel { return &g.channels[id] }

// Nodes returns all nodes. The slice is owned by the graph and read-only:
// a node's Name and Kind are construction-time only, and the memoized
// Fingerprint does not see writes to them.
func (g *Graph) Nodes() []Node { return g.nodes }

// Channels returns all channels. The slice is owned by the graph and
// read-only, as for Channel.
func (g *Graph) Channels() []Channel { return g.channels }

// GPUs returns the ids of all GPU nodes in id order.
func (g *Graph) GPUs() []NodeID {
	var ids []NodeID
	for _, n := range g.nodes {
		if n.Kind == GPU {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Out returns the ids of channels leaving node id.
func (g *Graph) Out(id NodeID) []ChannelID { return g.out[id] }

// In returns the ids of channels entering node id.
func (g *Graph) In(id NodeID) []ChannelID { return g.in[id] }

// ChannelsBetween returns all directed channels from a to b, in id order.
func (g *Graph) ChannelsBetween(a, b NodeID) []ChannelID {
	var ids []ChannelID
	for _, cid := range g.out[a] {
		if g.channels[cid].To == b {
			ids = append(ids, cid)
		}
	}
	return ids
}

// HasDirect reports whether any directed channel a->b exists.
func (g *Graph) HasDirect(a, b NodeID) bool {
	for _, cid := range g.out[a] {
		if g.channels[cid].To == b {
			return true
		}
	}
	return false
}

// Neighbors returns the distinct nodes reachable from id over one channel.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	for _, cid := range g.out[id] {
		to := g.channels[cid].To
		if !seen[to] {
			seen[to] = true
			out = append(out, to)
		}
	}
	return out
}

// Validate checks structural invariants: every channel endpoint exists and
// every bidirectional tag pairing is internally consistent (a channel's
// reverse direction exists with the same tag). Builders in this package
// always produce valid graphs; Validate guards hand-built ones.
func (g *Graph) Validate() error {
	for _, c := range g.channels {
		if !g.validNode(c.From) || !g.validNode(c.To) {
			return fmt.Errorf("topology: channel %d has invalid endpoints %d->%d", c.ID, c.From, c.To)
		}
		// Every link in the topologies we model is bidirectional: require a
		// reverse channel with the same tag.
		found := false
		for _, rid := range g.ChannelsBetween(c.To, c.From) {
			if g.channels[rid].Tag == c.Tag {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("topology: channel %d (%d->%d, %q) has no reverse channel", c.ID, c.From, c.To, c.Tag)
		}
	}
	return nil
}

// KillChannel marks a channel as failed: it refuses all traffic until
// RestoreChannel is called. Killing an already-dead channel is a no-op.
func (g *Graph) KillChannel(id ChannelID) {
	g.channels[g.mustChannel(id)].down = true
	g.fp.Store(0)
}

// DegradeChannel divides a channel's effective bandwidth by factor (>= 1).
// Degrading an already-degraded channel replaces the factor rather than
// compounding, so fault plans stay idempotent.
func (g *Graph) DegradeChannel(id ChannelID, factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("topology: degrade factor %v < 1 on channel %d", factor, id))
	}
	g.channels[g.mustChannel(id)].degrade = factor
	g.fp.Store(0)
}

// RestoreChannel clears all health state on a channel.
//
// Note that this restores the channel to its *pristine* state, not to its
// state before the most recent fault: a baseline degrade applied before a
// kill is lost. Code that must undo a fault exactly (fault-plan reverts,
// churn recovery) should capture Health first and put it back with
// SetHealth.
func (g *Graph) RestoreChannel(id ChannelID) {
	c := &g.channels[g.mustChannel(id)]
	c.down = false
	c.degrade = 0
	g.fp.Store(0)
}

// ChannelHealth is the mutable health state of one channel, as a value.
// The zero value means pristine (up, full bandwidth).
type ChannelHealth struct {
	Down    bool
	Degrade float64 // 0 or 1 = nominal bandwidth; see DegradeFactor
}

// Health returns channel id's current health state.
func (g *Graph) Health(id ChannelID) ChannelHealth {
	c := &g.channels[g.mustChannel(id)]
	return ChannelHealth{Down: c.down, Degrade: c.degrade}
}

// SetHealth overwrites channel id's health state. Unlike RestoreChannel this
// can reinstate a pre-fault degrade exactly, so stacked faults (degrade,
// then kill, then recover) round-trip without gaining bandwidth.
func (g *Graph) SetHealth(id ChannelID, h ChannelHealth) {
	if h.Degrade != 0 && h.Degrade < 1 {
		panic(fmt.Sprintf("topology: degrade factor %v < 1 on channel %d", h.Degrade, id))
	}
	c := &g.channels[g.mustChannel(id)]
	c.down = h.Down
	c.degrade = h.Degrade
	g.fp.Store(0)
}

// SnapshotHealth captures the health of every channel, index = ChannelID.
func (g *Graph) SnapshotHealth() []ChannelHealth {
	snap := make([]ChannelHealth, len(g.channels))
	for i := range g.channels {
		snap[i] = ChannelHealth{Down: g.channels[i].down, Degrade: g.channels[i].degrade}
	}
	return snap
}

// RestoreHealth puts back a snapshot taken by SnapshotHealth.
func (g *Graph) RestoreHealth(snap []ChannelHealth) {
	if len(snap) != len(g.channels) {
		panic(fmt.Sprintf("topology: health snapshot for %d channels applied to graph with %d", len(snap), len(g.channels)))
	}
	for i := range snap {
		g.channels[i].down = snap[i].Down
		g.channels[i].degrade = snap[i].Degrade
	}
	g.fp.Store(0)
}

// DownChannels returns the ids of all failed channels, in id order.
func (g *Graph) DownChannels() []ChannelID {
	var ids []ChannelID
	for i := range g.channels {
		if g.channels[i].down {
			ids = append(ids, ChannelID(i))
		}
	}
	return ids
}

func (g *Graph) mustChannel(id ChannelID) int {
	if id < 0 || int(id) >= len(g.channels) {
		panic(fmt.Sprintf("topology: unknown channel %d", id))
	}
	return int(id)
}

// Resources materializes one des.Resource per channel, for use by an
// execution engine. Index i corresponds to ChannelID i.
func (g *Graph) Resources() []*des.Resource {
	res := make([]*des.Resource, len(g.channels))
	for i := range g.channels {
		res[i] = des.NewResource(g.channels[i].resName)
	}
	return res
}
