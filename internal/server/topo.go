package server

import (
	"sync"

	"ccube/internal/topology"
)

// topoCache shares one graph per topology name across clean (fault-free)
// requests. Sharing matters: the collective schedule cache is keyed on the
// graph pointer, so a shared graph turns repeated requests into cache hits.
// Clean execution never mutates a graph (Resources() mints fresh resources
// per run; schedules are immutable), so concurrent sharing is safe. Faulted
// requests must NOT share — Plan.Apply mutates channel health — and call
// topology.Named directly for a private graph.
type topoCache struct {
	mu     sync.Mutex
	graphs map[string]*topology.Graph
}

func (c *topoCache) shared(name string) (*topology.Graph, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.graphs[name]; ok {
		return g, nil
	}
	g, err := topology.Named(name)
	if err != nil {
		return nil, err
	}
	if c.graphs == nil {
		c.graphs = make(map[string]*topology.Graph)
	}
	c.graphs[name] = g
	return g, nil
}
