package collective_test

import (
	"context"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/collective/store"
	"ccube/internal/des"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

// TestScheduleCodecV2RoundTrip decodes the encoding of every schedule kind
// that reaches the store — the six built-ins, a synthesized schedule, a
// repaired one and a hierarchical one — into a schedule reflect.DeepEqual
// to its source: ops, the deps arena, partition and stamp.
func TestScheduleCodecV2RoundTrip(t *testing.T) {
	cases := map[string]func() (*collective.Schedule, error){
		"synth": func() (*collective.Schedule, error) {
			res, err := synth.Synthesize(context.Background(), dgx1(), 1<<20, synth.Options{MaxChunks: 8, NoCache: true})
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		},
		"repaired": func() (*collective.Schedule, error) {
			g := dgx1()
			s, err := collective.Build(collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
			if err != nil {
				return nil, err
			}
			// A channel without a parallel sibling, so the repair splices a
			// detour and renumbers.
			for _, op := range s.Program().Ops {
				if op.Marker() {
					continue
				}
				if ch := g.Channel(op.Channel); len(g.ChannelsBetween(ch.From, ch.To)) == 1 {
					g.KillChannel(op.Channel)
					break
				}
			}
			repaired, _, err := collective.RepairSchedule(s, g.DownChannels(), nil)
			return repaired, err
		},
		"hierarchical": func() (*collective.Schedule, error) {
			mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(2))
			if err != nil {
				return nil, err
			}
			return collective.BuildHierarchical(collective.HierarchicalConfig{Cluster: mn, Bytes: 1 << 20, Chunks: 8, Chained: true})
		},
	}
	for alg := collective.AlgRing; alg <= collective.AlgHalvingDoubling; alg++ {
		cases[alg.String()] = func() (*collective.Schedule, error) {
			return collective.Build(collective.Config{Graph: dgx1(), Algorithm: alg, Bytes: 1 << 20, Chunks: 8})
		}
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			enc := collective.EncodeSchedule(s)
			dec, err := collective.DecodeSchedule(enc, s.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if s.BuiltFingerprint() != 0 {
				dec.Stamp()
			}
			if !reflect.DeepEqual(s, dec) {
				t.Fatal("decoded schedule is not deep-equal to its source")
			}
			if again := collective.EncodeSchedule(dec); string(again) != string(enc) {
				t.Fatal("re-encoding the decoded schedule changed its bytes")
			}
		})
	}
}

// relayFabric is a three-GPU fabric whose only spanning trees relay: gpu2's
// one egress channel leads to gpu1, so its reduction toward gpu0 must be
// forwarded through gpu1's relay slot.
func relayFabric() *topology.Graph {
	g := topology.NewGraph()
	a := g.AddNode("gpu0", topology.GPU)
	b := g.AddNode("gpu1", topology.GPU)
	c := g.AddNode("gpu2", topology.GPU)
	g.AddChannel(a, b, 10e9, des.Microsecond, "link")
	g.AddChannel(b, a, 10e9, des.Microsecond, "link")
	g.AddChannel(b, a, 10e9, des.Microsecond, "link")
	g.AddChannel(c, b, 10e9, des.Microsecond, "link")
	g.AddChannel(a, c, 10e9, des.Microsecond, "link")
	return g
}

// TestAssembledScheduleStoreRoundTrip: a synthesized schedule — adopted by
// Assemble from the compiler's ops, relay hops included — keeps the arena
// invariant (every op's deps a three-index subslice of the one arena, which
// holds nothing else) through the store codec, and the decoded copy
// verifies.
func TestAssembledScheduleStoreRoundTrip(t *testing.T) {
	for name, g := range map[string]*topology.Graph{"dgx1": dgx1(), "relay": relayFabric()} {
		t.Run(name, func(t *testing.T) {
			res, err := synth.Synthesize(context.Background(), g, 1<<20, synth.Options{NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			s := res.Schedule
			if err := s.ArenaError(); err != nil {
				t.Fatalf("assembled: %v", err)
			}
			dec, err := collective.DecodeSchedule(collective.EncodeSchedule(s), g)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.ArenaError(); err != nil {
				t.Fatalf("decoded: %v", err)
			}
			if err := dec.Validate(); err != nil {
				t.Fatalf("decoded schedule fails verification: %v", err)
			}
			if name == "relay" && len(dec.DetourNodes()) == 0 {
				t.Fatal("relay fabric schedule has no relay hop")
			}
			if !reflect.DeepEqual(s.Program().Ops, dec.Program().Ops) {
				t.Fatal("decoded ops differ from the assembled ones")
			}
		})
	}
}

// encodeV1 writes s in codec version 1's layout, the one stores held before
// labels were dropped: no total dependency count, and a label per transfer.
func encodeV1(s *collective.Schedule) []byte {
	p := s.Program()
	buf := binary.AppendUvarint(nil, 1)
	buf = binary.AppendUvarint(buf, uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		buf = binary.AppendVarint(buf, int64(n))
	}
	buf = binary.AppendVarint(buf, s.Partition.TotalBytes)
	buf = binary.AppendUvarint(buf, uint64(s.Partition.NumChunks()))
	for _, sz := range s.Partition.Sizes {
		buf = binary.AppendVarint(buf, sz)
	}
	var flags uint64
	if s.InOrder {
		flags = 1
	}
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendVarint(buf, int64(s.Streams))
	buf = binary.AppendUvarint(buf, uint64(s.Contract))
	buf = binary.AppendUvarint(buf, uint64(len(p.Ops)))
	for i, op := range p.Ops {
		buf = binary.AppendVarint(buf, int64(op.Chunk))
		buf = binary.AppendVarint(buf, op.Bytes)
		buf = binary.AppendVarint(buf, int64(op.Channel))
		buf = binary.AppendUvarint(buf, uint64(len(op.Deps)))
		for _, d := range op.Deps {
			buf = binary.AppendVarint(buf, int64(d))
		}
		for _, v := range []int{int(op.Src.Node), op.Src.Relay, int(op.Dst.Node), op.Dst.Relay} {
			buf = binary.AppendVarint(buf, int64(v))
		}
		var tf uint64
		if op.Accumulate {
			tf |= 1
		}
		if op.NoAlpha {
			tf |= 2
		}
		buf = binary.AppendUvarint(buf, tf)
		buf = binary.AppendVarint(buf, int64(op.Final))
		label := p.Label(i)
		buf = binary.AppendUvarint(buf, uint64(len(label)))
		buf = append(buf, label...)
	}
	return buf
}

// TestStoreDropsV1Payloads: the codec version is part of the store key, so
// an entry written by the version-1 codec simply misses; and a v1 payload
// found under the current key is a clean miss that deletes the entry, never
// an error. Either way the cache builds the schedule afresh and writes a
// v2 payload through.
func TestStoreDropsV1Payloads(t *testing.T) {
	cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	want, err := collective.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeV1(want)
	if _, err := collective.DecodeSchedule(v1, cfg.Graph); err == nil {
		t.Fatal("the v2 decoder accepted a v1 payload")
	}
	key, ok := collective.StoreKey(cfg)
	if !ok || !strings.HasPrefix(key, "ccs/v2/") {
		t.Fatalf("store key %q does not carry codec version 2", key)
	}
	for _, tc := range []struct {
		name        string
		key         string
		wantCorrupt uint64
	}{
		{"v1 key", "ccs/v1/" + strings.TrimPrefix(key, "ccs/v2/"), 0},
		{"current key", key, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(tc.key, v1); err != nil {
				t.Fatal(err)
			}
			c := collective.NewCache()
			c.SetStore(st)
			got, err := c.Build(cfg)
			if err != nil {
				t.Fatalf("a v1 payload in the store must be a miss, not an error: %v", err)
			}
			if !reflect.DeepEqual(got.Program().Ops, want.Program().Ops) {
				t.Fatal("schedule built past a v1 payload differs from a fresh build")
			}
			if stats := st.Stats(); stats.Hits != 0 || stats.Misses != 1 || stats.Corrupt != tc.wantCorrupt {
				t.Fatalf("store stats = %+v, want one miss and %d corrupt", stats, tc.wantCorrupt)
			}
			payload, ok := st.Get(key)
			if !ok {
				t.Fatal("the rebuild wrote nothing through")
			}
			if v, _ := binary.Uvarint(payload); v != 2 {
				t.Fatalf("written-through payload has codec version %d, want 2", v)
			}
		})
	}
}
