package schedcheck

import (
	"fmt"
	"strings"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// This file holds the performance proofs — the deep check classes that
// reason about the cost model rather than data semantics:
//
//	contention — no physical channel is shared by logically-concurrent
//	             chunk streams: each channel is a serialized resource, so
//	             two unordered transfers from different streams (the trees
//	             of a multi-tree schedule) queue on the link and the overlap
//	             the schedule was built for degrades to serial execution.
//	             This is the static form of the paper's requirement that
//	             overlapped double trees map to disjoint physical channels.
//	             Same-stream pipelining — successive ring chunks riding one
//	             channel back to back — is expected bandwidth-boundness, not
//	             contention; its cost is priced into MakespanBound.
//	wait-for   — deadlock freedom of the combined task/resource wait-for
//	             graph, not just the dependency DAG: a channel serves its
//	             transfers in schedule order, so each transfer also waits
//	             for its channel predecessor. A cycle mixing dependency
//	             edges and channel-order edges deadlocks under in-order
//	             channel service even though the dependency DAG is acyclic.
//
// They run behind CheckDeep (collective exposes them as VerifyDeep) because
// they constrain performance, not correctness: a schedule can violate them
// and still deliver every chunk.
//
// MakespanBound ties the two to the simulator: the larger of the critical
// path and the busiest channel's load is a provable lower bound on any
// execution's completion time, so `bound <= simulated <= slack*bound` turns
// cost-model drift between the analyzer and the DES into a test failure.

// opDuration returns the op's alpha-beta cost on its channel, matching the
// task durations the collective executors lower each op to: Latency +
// ChunkBytes[Chunk]/EffectiveBandwidth, minus the latency term for NoAlpha
// continuation transfers. Markers are free.
func (ck *checker) opDuration(op *Op) des.Time {
	if op.Marker() {
		return 0
	}
	ch := ck.p.Graph.Channel(op.ChannelID())
	d := ch.TransferTime(ck.p.ChunkBytes[op.Chunk])
	if op.NoAlpha {
		d -= ch.Latency
	}
	return d
}

// criticalPath returns the longest duration-weighted path through the
// dependency DAG: the completion time of an execution with unlimited
// parallelism and no resource conflicts. Requires ck.topo.
func (ck *checker) criticalPath() des.Time {
	finish := make([]des.Time, len(ck.p.Ops))
	var cp des.Time
	for _, id := range ck.topo {
		op := &ck.p.Ops[id]
		var start des.Time
		for _, d := range ck.deps.row(int(id)) {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[id] = start + ck.opDuration(op)
		if finish[id] > cp {
			cp = finish[id]
		}
	}
	return cp
}

// channelLoads returns each channel's serialized transfer load, indexed by
// channel id.
func (ck *checker) channelLoads() []des.Time {
	loads := make([]des.Time, ck.p.Graph.NumChannels())
	for i := range ck.p.Ops {
		op := &ck.p.Ops[i]
		if !op.Marker() {
			loads[op.Channel] += ck.opDuration(op)
		}
	}
	return loads
}

// contention proves the schedule's stream-overlap claim is physically
// realizable: transfers from two different chunk streams (chunk % Streams —
// the trees of a multi-tree schedule) must never share a physical channel
// while the dependency structure leaves them unordered. A channel serves one
// transfer at a time, so such a pair queues on the link and the cross-stream
// overlap the schedule was built for silently serializes. Single-stream
// schedules (ring, halving-doubling) claim no channel-level overlap and pass
// vacuously; their bandwidth-boundness is what MakespanBound prices.
// Requires the full closure.
func (ck *checker) contention() {
	streams := ck.p.Streams
	if streams < 2 {
		return
	}
	perCh := make([][]int, ck.p.Graph.NumChannels())
	for i := range ck.p.Ops {
		op := &ck.p.Ops[i]
		if !op.Marker() {
			perCh[op.Channel] = append(perCh[op.Channel], i)
		}
	}
	for chID, ids := range perCh {
		// One violation per channel: the first unordered cross-stream pair.
	pairs:
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				oa, ob := &ck.p.Ops[ids[a]], &ck.p.Ops[ids[b]]
				if int(oa.Chunk)%streams == int(ob.Chunk)%streams || ck.pathBetween(ids[a], ids[b]) {
					continue
				}
				ch := ck.p.Graph.Channel(topology.ChannelID(chID))
				ck.fail(ClassContention, ids[b],
					"channel %d (%s->%s) is shared by concurrent streams %d and %d: %s and %s are unordered and will queue on one physical link (overlapped trees need disjoint channels)",
					chID, ck.p.Graph.Node(ch.From).Name, ck.p.Graph.Node(ch.To).Name,
					int(oa.Chunk)%streams, int(ob.Chunk)%streams, ck.label(ids[a]), ck.label(ids[b]))
				break pairs
			}
		}
	}
}

// waitFor proves deadlock freedom of the combined wait-for graph: dependency
// edges plus per-channel service-order edges (a channel grants its transfers
// in schedule order, so each waits for its channel predecessor). The
// dependency DAG being acyclic (structure class) does not imply this graph
// is: a transfer that depends on a later transfer of the same channel
// deadlocks under in-order service.
func (ck *checker) waitFor() {
	n := len(ck.p.Ops)
	succs := make([][]int, n)
	preds := make([][]int, n)
	indeg := make([]int, n)
	addEdge := func(from, to int) {
		succs[from] = append(succs[from], to)
		preds[to] = append(preds[to], from)
		indeg[to]++
	}
	for i := range ck.p.Ops {
		for _, d := range ck.deps.row(i) {
			addEdge(int(d), i)
		}
	}
	// Channel service order: op ids ascend in schedule order, so chaining
	// each channel's ops by id models in-order grant.
	lastOn := map[int32]int{}
	for i := range ck.p.Ops {
		op := &ck.p.Ops[i]
		if op.Marker() {
			continue
		}
		if prev, ok := lastOn[op.Channel]; ok {
			addEdge(prev, i)
		}
		lastOn[op.Channel] = i
	}

	queue := make([]int, 0, n)
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	done := make([]bool, n)
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		done[id] = true
		processed++
		for _, s := range succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed == n {
		return
	}

	// Every unprocessed op has an unprocessed predecessor, so walking
	// predecessors from any of them must revisit a node: that loop is a
	// concrete deadlock cycle to show in the message.
	start := -1
	for id := 0; id < n; id++ {
		if !done[id] {
			start = id
			break
		}
	}
	seenAt := map[int]int{}
	var path []int
	cur := start
	for {
		if at, ok := seenAt[cur]; ok {
			path = path[at:]
			break
		}
		seenAt[cur] = len(path)
		path = append(path, cur)
		next := -1
		for _, p := range preds[cur] {
			if !done[p] {
				next = p
				break
			}
		}
		cur = next
	}
	// path lists the cycle in waited-on order (predecessor direction);
	// reverse it so the message reads "a waits for b waits for ...".
	labels := make([]string, 0, len(path)+1)
	for i := len(path) - 1; i >= 0; i-- {
		labels = append(labels, ck.label(path[i]))
		if len(labels) == 8 && i > 0 {
			labels = append(labels, fmt.Sprintf("... (%d more)", i))
			break
		}
	}
	labels = append(labels, ck.label(path[len(path)-1]))
	ck.fail(ClassWaitFor, path[len(path)-1],
		"dependency+channel-order wait-for cycle (%d ops cannot start under in-order channel service): %s",
		n-processed, strings.Join(labels, " -> "))
}

// withStructure runs the structural prerequisite for the exported
// cost-model queries and then f on the pooled checker, or returns the error
// for a program the bounds are meaningless on.
func withStructure(p *Program, f func(ck *checker)) error {
	ck := getChecker(p)
	defer ck.release()
	ck.structure(false)
	if err := ck.r.Err(); err != nil {
		return err
	}
	f(ck)
	return nil
}

// CriticalPath returns the duration-weighted longest path through the
// program's dependency DAG under the channel cost model: the completion
// time with unlimited parallelism. Fails if the program is structurally
// invalid.
func CriticalPath(p *Program) (des.Time, error) {
	var cp des.Time
	err := withStructure(p, func(ck *checker) { cp = ck.criticalPath() })
	return cp, err
}

// ChannelLoads returns each channel's serialized transfer load (the sum of
// its transfers' alpha-beta costs), indexed by channel id.
func ChannelLoads(p *Program) ([]des.Time, error) {
	var loads []des.Time
	err := withStructure(p, func(ck *checker) { loads = ck.channelLoads() })
	return loads, err
}

// MakespanBound returns a provable lower bound on the completion time of
// any execution of the program: the larger of the dependency critical path
// and the busiest channel's serialized load. The DES can never finish the
// schedule faster; how much slower it finishes is bounded by the grid test
// in internal/collective, which asserts simulated <= slack * bound.
func MakespanBound(p *Program) (des.Time, error) {
	var bound des.Time
	err := withStructure(p, func(ck *checker) {
		bound = ck.criticalPath()
		for _, load := range ck.channelLoads() {
			if load > bound {
				bound = load
			}
		}
	})
	return bound, err
}
