package collective

import (
	"bytes"
	"context"
	"testing"

	"ccube/internal/topology"
)

// FuzzDecodeSchedule feeds the store decoder arbitrary payloads against
// three live graphs, picked by the first argument: the DGX-1, a 16-GPU
// fully connected fabric and a two-box (16-GPU) cluster. The seeds are the
// encodings of C-Cube, the ring and the hierarchical AllReduce on them.
// The decoder must never panic; a payload it accepts must re-encode to its
// own bytes; and an accepted schedule either fails verify-on-load
// (Validate) or executes without error.
func FuzzDecodeSchedule(f *testing.F) {
	mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(2))
	if err != nil {
		f.Fatal(err)
	}
	graphs := []*topology.Graph{
		topology.DGX1(topology.DefaultDGX1Config()),
		topology.FullyConnected(16, topology.NVLinkBandwidth, topology.NVLinkLatency),
		mn.Graph,
	}
	seeds := []func() (*Schedule, error){
		func() (*Schedule, error) {
			return Build(Config{Graph: graphs[0], Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 4})
		},
		func() (*Schedule, error) { return Build(Config{Graph: graphs[1], Algorithm: AlgRing, Bytes: 1 << 20}) },
		func() (*Schedule, error) {
			return BuildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 1 << 20, Chunks: 2, Chained: true})
		},
	}
	for i, build := range seeds {
		s, err := build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), encodeSchedule(s))
	}
	f.Fuzz(func(t *testing.T, graph uint8, payload []byte) {
		s, err := decodeSchedule(payload, graphs[int(graph)%len(graphs)])
		if err != nil {
			return
		}
		if again := encodeSchedule(s); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, payload)
		}
		if _, err := s.adopt(); err != nil {
			return
		}
		if _, err := s.ExecuteCtx(context.Background()); err != nil {
			t.Fatalf("a decoded schedule passed verify-on-load but failed to execute: %v", err)
		}
	})
}
