package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// buildTopology builds a fresh graph for a topology name with the same
// parameters ccube-serve uses, which keeps them unexported: the oracle and
// the traced replay need graphs the server never saw.
func buildTopology(name string) (*topology.Graph, error) {
	const (
		fcBandwidth   = 25e9
		fcLatency     = des.Microsecond
		irregularSeed = 1
	)
	kind, arg, _ := strings.Cut(name, ":")
	n, _ := strconv.Atoi(arg)
	switch {
	case name == "dgx1":
		return topology.DGX1(topology.DefaultDGX1Config()), nil
	case name == "dgx1-low":
		cfg := topology.DefaultDGX1Config()
		cfg.LowBandwidth = true
		return topology.DGX1(cfg), nil
	case kind == "cluster" && n >= 2:
		return topology.Hierarchy(topology.DefaultHierarchyConfig(n)), nil
	case kind == "fc" && n >= 2:
		return topology.FullyConnected(n, fcBandwidth, fcLatency), nil
	case kind == "fcasym" && n >= 2:
		return topology.AsymmetricFullyConnected(n, fcBandwidth, fcLatency, irregularSeed), nil
	case kind == "rr" && n >= 5:
		return topology.RandomRegular(n, 4, fcBandwidth, fcLatency, irregularSeed), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// graphSet hands out one graph per topology name, built on first use, like
// the server's shared graphs. build is called with the name when a graph is
// missing.
type graphSet struct {
	mu     sync.Mutex
	graphs map[string]*topology.Graph
}

func (s *graphSet) get(name string, build func(string) (*topology.Graph, error)) (*topology.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	g, err := build(name)
	if err != nil {
		return nil, err
	}
	if s.graphs == nil {
		s.graphs = make(map[string]*topology.Graph)
	}
	s.graphs[name] = g
	return g, nil
}

// lowerBound is a lower bound, in nanoseconds, on any AllReduce of bytes
// over g's GPUs: 2(P−1)·D ÷ Σ healthy GPU egress bandwidth. Without
// in-network reduction every byte of the result needs P−1 GPU-to-GPU sends
// to reduce and P−1 more to broadcast, and all GPUs together push at most
// their summed egress bandwidth. On a fabric where each GPU has one egress
// link of bandwidth β this is 2(P−1)/P·D/β. Latency is left out, so the bound
// holds for every chunking.
func lowerBound(g *topology.Graph, bytes int64) float64 {
	gpus := g.GPUs()
	egress := 0.0
	for _, n := range gpus {
		for _, id := range g.Out(n) {
			if ch := g.Channel(id); !ch.Down() {
				egress += ch.EffectiveBandwidth()
			}
		}
	}
	return 2 * float64(len(gpus)-1) * float64(bytes) / egress * 1e9
}
