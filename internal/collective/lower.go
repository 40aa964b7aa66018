package collective

import (
	"fmt"
	"slices"
	"sync"

	"ccube/internal/des"
)

// Lowering a schedule into the DES: what a run derives from the op graph
// alone — the successor CSR, the initial pending counts and, per
// (participant, chunk), the transfer whose End makes the chunk ready there
// — is built once per op graph, as its skeleton, on the graph's second
// executor run (most derived copies run once). A run writes only what
// depends on its sizes: each transfer's duration, read from a per-run table
// of one TransferTime per (channel, distinct chunk size). Instantiate,
// which appends the deps to a des.Graph and never borrows the CSR, reads
// the ready ids of a skeleton already built but never builds one.
//
// The skeleton lives in the op graph's one record (opGraph, incremental.go),
// which every verified schedule over the graph points to: adopt makes one
// for a new schedule; a header, same-shape or prefix, copies its graph's
// with the rest of the schedule, so the headers of every size share one
// skeleton; a derived copy (opGraph.serve), clone and renumber (repair)
// make new ones for their new op graphs. Sharing a record is what lets a
// schedule run on its skeleton: its ops are the record's own or their
// first n (a prefix header), and since des.Flat.Link lists successors in
// ascending id order and every dependency id is below its op's, a prefix's
// pending counts and ready ids are the graph's, and the run reads each
// successor row up to its first id >= n (des.Flat.Borrow). A schedule
// without a record, and every run that binds resources (fault injection,
// checkpoints, resumes and the exported graph of ExecuteOnCtx), links its
// own CSR.

// skeleton is an op graph lowered once: des.Skeleton's pending counts and
// successor CSR, and the ready-id matrix.
type skeleton struct {
	des.Skeleton
	chunks int // the op graph's chunk count, the stride of ready
	// ready[i*chunks+c] is the transfer whose End makes chunk c ready at
	// participant i (the last final wins).
	ready []int32
}

// bytes is what the skeleton's arrays hold.
func (sk *skeleton) bytes() int64 { return sk.Skeleton.Bytes() + 4*int64(len(sk.ready)) }

// skeleton returns the skeleton s runs on, counting the ask as a run of s's
// op graph, so the graph's second run builds it and, if the graph is
// resident, its cache counts it. It is nil before that run, and otherwise
// as for builtSkeleton.
func (s *Schedule) skeleton() *skeleton {
	g := s.g
	if g == nil {
		return nil
	}
	if g.sk.Load() == nil && g.runs.Add(1) >= 2 {
		g.lower.Do(func() {
			g.sk.Store(g.s.newSkeleton())
			if c := g.cache.Load(); c != nil {
				c.countSkeleton(g)
			}
		})
	}
	return g.sk.Load()
}

// builtSkeleton returns s's op graph's skeleton if some run has built it,
// and nil otherwise or for a schedule without a record. It counts no run,
// so a caller that does not borrow the successor CSR (Instantiate) never
// makes a graph lower.
func (s *Schedule) builtSkeleton() *skeleton {
	if s.g == nil {
		return nil
	}
	return s.g.sk.Load()
}

// newSkeleton lowers s's op graph, or returns nil when some (participant,
// chunk) has no final, which every run of s then reports.
func (s *Schedule) newSkeleton() *skeleton {
	k := s.Partition.NumChunks()
	sk := &skeleton{chunks: k, ready: make([]int32, len(s.Nodes)*k)}
	if s.scanReady(sk.ready, s.indexNodes(nil)) != nil {
		return nil
	}
	sk.Skeleton = *des.NewSkeleton(s.depOff, s.deps)
	return sk
}

// scanReady writes into ready, at i*NumChunks+c, the transfer whose End
// makes chunk c ready at participant i (the last final wins); idx indexes
// the participants. It fails unless every (participant, chunk) has a final.
func (s *Schedule) scanReady(ready []int32, idx nodeIndex) error {
	k := s.Partition.NumChunks()
	for j := range ready {
		ready[j] = -1
	}
	for i := range s.ops {
		op := &s.ops[i]
		if op.Final < 0 {
			continue
		}
		ni := idx.of(op.FinalNode())
		if ni < 0 {
			return fmt.Errorf("collective: final node %d not a participant", op.Final)
		}
		ready[ni*k+int(op.Chunk)] = int32(i)
	}
	for j, id := range ready {
		if id < 0 {
			return fmt.Errorf("collective: chunk %d never becomes ready at node %v", j%k, s.Nodes[j/k])
		}
	}
	return nil
}

// run is one execution's reusable state: the des.Flat it runs on and the
// lowerer that fills it. Executors take one from runPool, so a warm run
// allocates neither.
type run struct {
	des.Flat
	lowerer
}

var runPool = sync.Pool{New: func() any { return new(run) }}

func getRun() *run { return runPool.Get().(*run) }

// putRun returns r to the pool. The caller must not touch r afterwards.
func putRun(r *run) {
	r.Release()
	runPool.Put(r)
}

// lowerer is one run's lowering scratch, the helper behind both fill and
// Instantiate.
type lowerer struct {
	sizes []int64 // the partition's distinct chunk sizes
	class []int32 // class[c]: the index of chunk c's size in sizes
	// dur[ch*len(sizes)+class] is channel ch's TransferTime for that size,
	// or −1 until a transfer asks for it; set lists the entries a run
	// filled, which the next one clears.
	dur   []des.Time
	set   []int32
	node  nodeIndex // participant index per node, for a scan of the finals
	ready []int32   // a scan's ready ids
}

// prepare readies l to lower s's transfers: it indexes the partition's
// distinct chunk sizes and clears the duration table.
func (l *lowerer) prepare(s *Schedule) {
	k := s.Partition.NumChunks()
	l.sizes = l.sizes[:0]
	l.class = slices.Grow(l.class[:0], k)[:k]
	for c, size := range s.Partition.Sizes {
		j := slices.Index(l.sizes, size)
		if j < 0 {
			j = len(l.sizes)
			l.sizes = append(l.sizes, size)
		}
		l.class[c] = int32(j)
	}
	for _, slot := range l.set {
		l.dur[slot] = -1
	}
	l.set = l.set[:0]
	for n := s.Graph.NumChannels() * len(l.sizes); len(l.dur) < n; {
		l.dur = append(l.dur, -1)
	}
}

// transfer lowers transfer i of s into its DES task: the alpha-beta
// transfer time, bit-identical to the channel's TransferTime of the
// chunk's bytes (less the latency for a NoAlpha op), and the channel it
// occupies, or zero and −1 for a marker. A transfer riding a down channel
// is a *DeadChannelError.
func (l *lowerer) transfer(s *Schedule, i int) (des.Time, int32, error) {
	op := &s.ops[i]
	if op.Marker() {
		return 0, -1, nil
	}
	d := l.dur[int(op.Channel)*len(l.sizes)+int(l.class[op.Chunk])]
	if d < 0 {
		var err error
		if d, err = l.entry(s, i); err != nil {
			return 0, -1, err
		}
	}
	if op.NoAlpha {
		d -= s.Graph.Channel(op.ChannelID()).Latency
	}
	return d, op.Channel, nil
}

// entry fills the table entry of transfer i's channel and chunk size with
// the channel's TransferTime and returns it. The first transfer of each
// channel and size fills its entry, so the first transfer on a down channel
// in id order reports it.
func (l *lowerer) entry(s *Schedule, i int) (des.Time, error) {
	op := &s.ops[i]
	ch := s.Graph.Channel(op.ChannelID())
	if ch.Down() {
		return 0, &DeadChannelError{Transfer: i, Label: s.Label(i), Channel: op.ChannelID(),
			From: ch.From, To: ch.To}
	}
	class := l.class[op.Chunk]
	slot := int(op.Channel)*len(l.sizes) + int(class)
	l.dur[slot] = ch.TransferTime(l.sizes[class])
	l.set = append(l.set, int32(slot))
	return l.dur[slot], nil
}

// readyIDs returns, at ids[i*stride+c], the transfer whose End makes chunk
// c ready at participant i: the skeleton's matrix when s runs on sk, else a
// scan of s's finals into l's scratch, which fails unless every
// (participant, chunk) has a final.
func (l *lowerer) readyIDs(s *Schedule, sk *skeleton) (ids []int32, stride int, err error) {
	if sk != nil {
		return sk.ready, sk.chunks, nil
	}
	k := s.Partition.NumChunks()
	l.node = s.indexNodes(l.node)
	l.ready = slices.Grow(l.ready[:0], len(s.Nodes)*k)[:len(s.Nodes)*k]
	return l.ready, k, s.scanReady(l.ready, l.node)
}
