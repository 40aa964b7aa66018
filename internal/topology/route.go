package topology

import "fmt"

// Route is a path of directed channels carrying one logical flow. A direct
// connection is a single-channel route; a detour route (paper §IV-A) has two
// or more hops through intermediate GPUs, forwarded by "static routing"
// kernels rather than the host PCIe path.
type Route struct {
	Channels []ChannelID
}

// Direct reports whether the route is a single hop.
func (r Route) Direct() bool { return len(r.Channels) == 1 }

// Hops returns the number of channels on the route.
func (r Route) Hops() int { return len(r.Channels) }

// Via returns the intermediate node ids (empty for a direct route).
func (r Route) Via(g *Graph) []NodeID {
	var via []NodeID
	for i := 0; i < len(r.Channels)-1; i++ {
		via = append(via, g.Channel(r.Channels[i]).To)
	}
	return via
}

// Endpoints returns the source and destination node of the route.
func (r Route) Endpoints(g *Graph) (NodeID, NodeID) {
	if len(r.Channels) == 0 {
		panic("topology: empty route")
	}
	return g.Channel(r.Channels[0]).From, g.Channel(r.Channels[len(r.Channels)-1]).To
}

// Validate checks that consecutive channels are contiguous.
func (r Route) Validate(g *Graph) error {
	if len(r.Channels) == 0 {
		return fmt.Errorf("topology: empty route")
	}
	for i := 1; i < len(r.Channels); i++ {
		prev := g.Channel(r.Channels[i-1])
		cur := g.Channel(r.Channels[i])
		if prev.To != cur.From {
			return fmt.Errorf("topology: route hop %d: channel %d ends at node %d but channel %d starts at node %d",
				i, prev.ID, prev.To, cur.ID, cur.From)
		}
	}
	return nil
}

// Router computes static routes over a graph, preferring direct channels and
// falling back to a one-intermediate detour through a common GPU neighbor.
// Channels already claimed by another flow can be excluded so that the two
// trees of a double-tree schedule are assigned disjoint physical channels.
type Router struct {
	g       *Graph
	claimed map[ChannelID]bool
}

// NewRouter returns a router over g with no channels claimed.
func NewRouter(g *Graph) *Router {
	return &Router{g: g, claimed: make(map[ChannelID]bool)}
}

// Claim marks a channel as exclusively owned by some flow; subsequent Route
// calls will not use it.
func (r *Router) Claim(id ChannelID) {
	if r.claimed[id] {
		panic(fmt.Sprintf("topology: channel %d claimed twice", id))
	}
	r.claimed[id] = true
}

// Release returns a previously claimed channel to the pool so it can be
// re-routed — the repair path frees the channels of a broken route before
// computing a replacement. Releasing an unclaimed channel panics: that is
// always a double-release bug in the caller.
func (r *Router) Release(id ChannelID) {
	if !r.claimed[id] {
		panic(fmt.Sprintf("topology: channel %d released without being claimed", id))
	}
	delete(r.claimed, id)
}

// Claimed reports whether the channel has been claimed.
func (r *Router) Claimed(id ChannelID) bool { return r.claimed[id] }

// direct returns the first unclaimed, healthy direct channel a->b in id
// order, or -1.
func (r *Router) direct(a, b NodeID) ChannelID {
	for _, cid := range r.g.out[a] {
		if c := &r.g.channels[cid]; c.To == b && !c.down && !r.claimed[cid] {
			return cid
		}
	}
	return -1
}

// Route returns a static route from a to b and claims its channels. Direct
// channels are preferred; otherwise a two-hop detour through a common GPU
// neighbor is used (the paper's GPU2->GPU0->GPU4 pattern). It returns an
// error when neither exists — the caller must then fall back to a modeled
// PCIe/host channel.
func (r *Router) Route(a, b NodeID) (Route, error) {
	if a == b {
		return Route{}, fmt.Errorf("topology: route from node %d to itself", a)
	}
	if cid := r.direct(a, b); cid >= 0 {
		r.Claim(cid)
		return Route{Channels: []ChannelID{cid}}, nil
	}
	// Detour through a common neighbor: both hops must be unclaimed, and the
	// intermediate must be a GPU (it runs the forwarding kernel).
	for _, mid := range r.g.Neighbors(a) {
		if r.g.Node(mid).Kind != GPU {
			continue
		}
		first := r.direct(a, mid)
		if first < 0 {
			continue
		}
		second := r.direct(mid, b)
		if second < 0 {
			continue
		}
		r.Claim(first)
		r.Claim(second)
		return Route{Channels: []ChannelID{first, second}}, nil
	}
	return Route{}, fmt.Errorf("topology: no direct channel or single-GPU detour from %s to %s",
		r.g.Node(a).Name, r.g.Node(b).Name)
}

// Probe computes the route Route would return without claiming anything, so
// callers can test feasibility non-destructively.
func (r *Router) Probe(a, b NodeID) (Route, error) {
	tx := r.Begin()
	rt, err := tx.Route(a, b)
	tx.Rollback()
	return rt, err
}

// RouteTx is a transactional view of a Router: routes computed through it
// claim channels tentatively and only reach the underlying router on Commit.
// Rollback discards every tentative claim. This lets a repair attempt probe
// several replacement routes and abandon the whole attempt atomically.
type RouteTx struct {
	r         *Router
	tentative []ChannelID
	done      bool
}

// Begin starts a routing transaction.
func (r *Router) Begin() *RouteTx {
	return &RouteTx{r: r}
}

// Route behaves like Router.Route but records its claims tentatively.
func (tx *RouteTx) Route(a, b NodeID) (Route, error) {
	if tx.done {
		panic("topology: Route on a finished RouteTx")
	}
	rt, err := tx.r.Route(a, b)
	if err != nil {
		return rt, err
	}
	tx.tentative = append(tx.tentative, rt.Channels...)
	return rt, nil
}

// Claim tentatively claims a single channel through the transaction.
func (tx *RouteTx) Claim(id ChannelID) {
	if tx.done {
		panic("topology: Claim on a finished RouteTx")
	}
	tx.r.Claim(id)
	tx.tentative = append(tx.tentative, id)
}

// Commit makes every tentative claim permanent.
func (tx *RouteTx) Commit() {
	if tx.done {
		panic("topology: RouteTx finished twice")
	}
	tx.done = true
	tx.tentative = nil
}

// Rollback releases every tentative claim.
func (tx *RouteTx) Rollback() {
	if tx.done {
		panic("topology: RouteTx finished twice")
	}
	tx.done = true
	for _, cid := range tx.tentative {
		tx.r.Release(cid)
	}
	tx.tentative = nil
}
