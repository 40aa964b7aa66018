// Package fault is the deterministic fault-injection and resilience layer:
// it degrades or kills channels and GPUs — statically (before a collective
// launches) or at virtual times mid-run — and drives the repair loop that
// reroutes schedules around dead links via the paper's detour mechanism
// (§IV-A) until the run completes or is proven unrepairable.
//
// Every plan is a plain value: the same Plan against the same topology
// produces byte-identical outcomes, so failure experiments are reproducible
// the way the paper's detour-overhead measurements (Fig. 15) are.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// Kind enumerates the failure modes the layer injects.
type Kind int

const (
	// LinkDown kills a channel: statically (At == 0) it refuses all traffic
	// and schedules must be repaired around it; timed (At > 0) the channel's
	// resource refuses reservations from At onward mid-run.
	LinkDown Kind = iota
	// LinkDegrade divides a channel's bandwidth by Factor.
	LinkDegrade
	// GPUSlow multiplies a GPU's compute time by Factor; in pure
	// communication schedules (where GPUs are not modeled as resources) it
	// degrades every channel touching the GPU instead, modeling the SM
	// contention a busy GPU imposes on its copy engines.
	GPUSlow
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkDegrade:
		return "link-degrade"
	case GPUSlow:
		return "gpu-slow"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one injected fault. Channel targets LinkDown/LinkDegrade; GPU
// targets GPUSlow. At == 0 means static (in effect before the run starts);
// At > 0 arms the fault at that virtual time.
type Event struct {
	Kind    Kind
	Channel topology.ChannelID
	GPU     topology.NodeID
	Factor  float64 // LinkDegrade / GPUSlow: >= 1
	At      des.Time
}

func (e Event) String() string {
	var b strings.Builder
	switch e.Kind {
	case LinkDown:
		fmt.Fprintf(&b, "kill ch%d", e.Channel)
	case LinkDegrade:
		fmt.Fprintf(&b, "degrade ch%d x%g", e.Channel, e.Factor)
	case GPUSlow:
		fmt.Fprintf(&b, "slow gpu%d x%g", e.GPU, e.Factor)
	}
	if e.At > 0 {
		fmt.Fprintf(&b, " @%v", e.At)
	}
	return b.String()
}

// Plan is a reproducible set of fault events.
type Plan struct {
	Events []Event
}

// NewPlan returns a plan over the given events.
func NewPlan(events ...Event) *Plan { return &Plan{Events: events} }

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate checks event fields against a topology.
func (p *Plan) Validate(g *topology.Graph) error {
	if p == nil {
		return nil
	}
	for i, e := range p.Events {
		switch e.Kind {
		case LinkDown:
			if e.Channel < 0 || int(e.Channel) >= g.NumChannels() {
				return fmt.Errorf("fault: event %d kills unknown channel %d", i, e.Channel)
			}
		case LinkDegrade:
			if e.Channel < 0 || int(e.Channel) >= g.NumChannels() {
				return fmt.Errorf("fault: event %d degrades unknown channel %d", i, e.Channel)
			}
			if e.Factor < 1 {
				return fmt.Errorf("fault: event %d degrade factor %v < 1", i, e.Factor)
			}
		case GPUSlow:
			if e.GPU < 0 || int(e.GPU) >= g.NumNodes() {
				return fmt.Errorf("fault: event %d slows unknown node %d", i, e.GPU)
			}
			if e.Factor < 1 {
				return fmt.Errorf("fault: event %d slow factor %v < 1", i, e.Factor)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, e.Kind)
		}
		if e.At < 0 {
			return fmt.Errorf("fault: event %d at negative time %v", i, e.At)
		}
	}
	return nil
}

// RandomLinkFailures returns a plan killing n distinct physical links of g,
// chosen by the seeded generator. A physical link is bidirectional: killing
// it downs both the sampled directed channel and its same-tag reverse (a
// duplicated pair's second link survives — it is separate hardware). The
// same (graph, seed, n) always yields the same plan — experiment sweeps stay
// reproducible.
func RandomLinkFailures(g *topology.Graph, seed int64, n int) *Plan {
	return killLinks(g, seed, n, 0, canonicalLinks(g))
}

// RandomTimedLinkFailures is RandomLinkFailures with each killed physical
// link armed mid-run: the kill time is drawn by the seeded generator
// uniformly from (0, window). Both directions of a link die at the same
// virtual instant — the same-timestamp case the canonical event order
// exists for. The churn harness uses it with window set to the healthy
// makespan, so failures land while the collective is in flight.
func RandomTimedLinkFailures(g *topology.Graph, seed int64, n int, window des.Time) *Plan {
	return killLinks(g, seed, n, max(window, 1), canonicalLinks(g))
}

// RandomTimedLinkFailuresAmong is RandomTimedLinkFailures restricted to the
// physical links underlying the given directed channels. Churn sweeps over
// large fabrics use it to draw failures from the links a schedule actually
// rides: on a 64-node mesh a schedule touches a few percent of the physical
// links, so unrestricted sampling would produce mostly no-op epochs.
func RandomTimedLinkFailuresAmong(g *topology.Graph, seed int64, n int, window des.Time, among []topology.ChannelID) *Plan {
	// Canonicalize each directed channel to its From < To representative so
	// a link listed in both directions is sampled once.
	seen := make(map[topology.ChannelID]bool, len(among))
	var links []topology.ChannelID
	add := func(cid topology.ChannelID) {
		if !seen[cid] {
			seen[cid] = true
			links = append(links, cid)
		}
	}
	for _, cid := range among {
		c := g.Channel(cid)
		if c.From < c.To {
			add(cid)
			continue
		}
		for _, rid := range reverses(g, c) {
			add(rid)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	return killLinks(g, seed, n, max(window, 1), links)
}

// canonicalLinks returns g's physical links, each by its From < To
// channel, in id order.
func canonicalLinks(g *topology.Graph) []topology.ChannelID {
	var links []topology.ChannelID
	for ci := 0; ci < g.NumChannels(); ci++ {
		if c := g.Channel(topology.ChannelID(ci)); c.From < c.To {
			links = append(links, c.ID)
		}
	}
	return links
}

// reverses returns the channels running opposite c on its physical link:
// those back from c.To to c.From with c's tag.
func reverses(g *topology.Graph, c *topology.Channel) []topology.ChannelID {
	var out []topology.ChannelID
	for _, rid := range g.ChannelsBetween(c.To, c.From) {
		if g.Channel(rid).Tag == c.Tag {
			out = append(out, rid)
		}
	}
	return out
}

// killLinks draws n of the canonical (From < To) links by seed and kills
// both directions of each, in link id order. A timed plan (window > 0)
// draws each link's kill time from the same generator, uniformly from
// (0, window]; a static one draws nothing more and kills at t = 0.
func killLinks(g *topology.Graph, seed int64, n int, window des.Time, links []topology.ChannelID) *Plan {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(links))
	picked := make([]topology.ChannelID, min(n, len(perm)))
	for i := range picked {
		picked[i] = links[perm[i]]
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	p := &Plan{}
	for _, cid := range picked {
		var at des.Time
		if window > 0 {
			at = des.Time(1 + rng.Int63n(int64(window)))
		}
		p.Events = append(p.Events, Event{Kind: LinkDown, Channel: cid, At: at})
		for _, rid := range reverses(g, g.Channel(cid)) {
			p.Events = append(p.Events, Event{Kind: LinkDown, Channel: rid, At: at})
		}
	}
	return p
}

// canonicalEvents returns the plan's events in canonical application order:
// by time, then kills before degrades before GPU slowdowns, then by target
// id, then by original position. Apply, ApplyToResources and TimedDeaths all
// iterate this order, so a plan behaves identically however its event list
// was assembled: two events sharing a virtual timestamp (a kill and a
// degrade landing on one channel in the same instant) apply in a defined
// order, and SetSlowdownAt breakpoints are always armed in nondecreasing
// time order per resource — arming them out of order panics.
func (p *Plan) canonicalEvents() []Event {
	if p == nil {
		return nil
	}
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		ta, tb := int(a.Channel), int(b.Channel)
		if a.Kind == GPUSlow {
			ta, tb = int(a.GPU), int(b.GPU)
		}
		return ta < tb
	})
	return out
}

// Apply installs the plan's static events (At == 0) into the graph's health
// state and returns a revert function restoring the previous health of every
// touched channel exactly — a channel carrying a baseline degrade before a
// stacked kill-then-degrade comes back degraded, never at full bandwidth.
// Timed events are left to ApplyToResources.
func (p *Plan) Apply(g *topology.Graph) (revert func()) {
	type saved struct {
		id topology.ChannelID
		h  topology.ChannelHealth
	}
	var undo []saved
	touch := func(id topology.ChannelID) {
		undo = append(undo, saved{id: id, h: g.Health(id)})
	}
	for _, e := range p.canonicalEvents() {
		if e.At > 0 {
			continue
		}
		switch e.Kind {
		case LinkDown:
			touch(e.Channel)
			g.KillChannel(e.Channel)
		case LinkDegrade:
			touch(e.Channel)
			g.DegradeChannel(e.Channel, e.Factor)
		case GPUSlow:
			// No GPU resource in a pure communication schedule: degrade
			// every channel touching the GPU instead.
			for _, cid := range append(append([]topology.ChannelID(nil), g.Out(e.GPU)...), g.In(e.GPU)...) {
				touch(cid)
				c := g.Channel(cid)
				if !c.Down() {
					g.DegradeChannel(cid, e.Factor*c.DegradeFactor())
				}
			}
		}
	}
	return func() {
		// Restore in reverse so overlapping events unwind correctly.
		for i := len(undo) - 1; i >= 0; i-- {
			g.SetHealth(undo[i].id, undo[i].h)
		}
	}
}

// ApplyToResources arms the plan's timed events (At > 0) on per-channel
// resources (index = ChannelID): LinkDegrade becomes a SetSlowdownAt
// breakpoint, LinkDown a FailAt, GPUSlow a breakpoint on every channel
// touching the GPU. Call before executing a schedule over the resources.
func (p *Plan) ApplyToResources(g *topology.Graph, res []*des.Resource) {
	for _, e := range p.canonicalEvents() {
		if e.At <= 0 {
			continue
		}
		switch e.Kind {
		case LinkDown:
			res[e.Channel].FailAt(e.At)
		case LinkDegrade:
			res[e.Channel].SetSlowdownAt(e.At, e.Factor)
		case GPUSlow:
			for _, cid := range g.Out(e.GPU) {
				res[cid].SetSlowdownAt(e.At, e.Factor)
			}
			for _, cid := range g.In(e.GPU) {
				res[cid].SetSlowdownAt(e.At, e.Factor)
			}
		}
	}
}

// GPUFactors returns the static per-GPU slowdown factor implied by the
// plan's GPUSlow events, for p GPUs (1 = full speed). The training simulator
// folds these into its straggler model.
func (p *Plan) GPUFactors(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	if p == nil {
		return out
	}
	for _, e := range p.Events {
		if e.Kind != GPUSlow || e.At > 0 {
			continue
		}
		if int(e.GPU) < n && e.Factor > out[e.GPU] {
			out[e.GPU] = e.Factor
		}
	}
	return out
}

// TimedDeaths returns the channels killed by timed LinkDown events, in
// canonical (time, channel) order. The repair loop's retry budget is derived
// from it.
func (p *Plan) TimedDeaths() []topology.ChannelID {
	var out []topology.ChannelID
	for _, e := range p.canonicalEvents() {
		if e.Kind == LinkDown && e.At > 0 {
			out = append(out, e.Channel)
		}
	}
	return out
}

// ParseSpec parses a comma-separated fault spec, the -fault CLI syntax:
//
//	kill:2-3        kill every channel GPU2->GPU3
//	kill:ch17       kill channel id 17
//	degrade:0-1x4   divide GPU0->GPU1 bandwidth by 4
//	slow:0x1.5      slow GPU0 by 1.5x
//
// Any event may carry an @T suffix (virtual nanoseconds) to arm it mid-run:
// kill:2-3@50000 kills the link 50us into the collective.
func ParseSpec(g *topology.Graph, spec string) (*Plan, error) {
	p := &Plan{}
	for _, raw := range strings.Split(spec, ",") {
		item := strings.TrimSpace(raw)
		if item == "" {
			continue
		}
		kind, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not kind:target", item)
		}
		var at des.Time
		if body, ts, found := strings.Cut(rest, "@"); found {
			ns, err := strconv.ParseInt(ts, 10, 64)
			if err != nil || ns <= 0 {
				return nil, fmt.Errorf("fault: bad time %q in %q", ts, item)
			}
			at = des.Time(ns)
			rest = body
		}
		switch kind {
		case "kill":
			chans, err := parseChannels(g, rest)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %w", item, err)
			}
			for _, cid := range chans {
				p.Events = append(p.Events, Event{Kind: LinkDown, Channel: cid, At: at})
			}
		case "degrade":
			target, fs, found := strings.Cut(rest, "x")
			if !found {
				return nil, fmt.Errorf("fault: %q needs a xFACTOR suffix", item)
			}
			factor, err := strconv.ParseFloat(fs, 64)
			if err != nil || factor < 1 {
				return nil, fmt.Errorf("fault: bad factor %q in %q", fs, item)
			}
			chans, err := parseChannels(g, target)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %w", item, err)
			}
			for _, cid := range chans {
				p.Events = append(p.Events, Event{Kind: LinkDegrade, Channel: cid, Factor: factor, At: at})
			}
		case "slow":
			gs, fs, found := strings.Cut(rest, "x")
			if !found {
				return nil, fmt.Errorf("fault: %q needs a xFACTOR suffix", item)
			}
			gpu, err := strconv.Atoi(gs)
			if err != nil {
				return nil, fmt.Errorf("fault: bad GPU %q in %q", gs, item)
			}
			factor, err := strconv.ParseFloat(fs, 64)
			if err != nil || factor < 1 {
				return nil, fmt.Errorf("fault: bad factor %q in %q", fs, item)
			}
			p.Events = append(p.Events, Event{Kind: GPUSlow, GPU: topology.NodeID(gpu), Factor: factor, At: at})
		default:
			return nil, fmt.Errorf("fault: unknown kind %q (want kill, degrade, or slow)", kind)
		}
	}
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// parseChannels resolves "A-B" (every directed channel A->B) or "chN" (one
// channel id).
func parseChannels(g *topology.Graph, s string) ([]topology.ChannelID, error) {
	if id, ok := strings.CutPrefix(s, "ch"); ok {
		n, err := strconv.Atoi(id)
		if err != nil || n < 0 || n >= g.NumChannels() {
			return nil, fmt.Errorf("unknown channel %q", s)
		}
		return []topology.ChannelID{topology.ChannelID(n)}, nil
	}
	as, bs, found := strings.Cut(s, "-")
	if !found {
		return nil, fmt.Errorf("target %q is neither A-B nor chN", s)
	}
	a, errA := strconv.Atoi(as)
	b, errB := strconv.Atoi(bs)
	if errA != nil || errB != nil {
		return nil, fmt.Errorf("bad node pair %q", s)
	}
	chans := g.ChannelsBetween(topology.NodeID(a), topology.NodeID(b))
	if len(chans) == 0 {
		return nil, fmt.Errorf("no channel %d->%d", a, b)
	}
	return chans, nil
}
