package topology

import (
	"fmt"
	"strconv"
	"strings"

	"ccube/internal/des"
)

// Named builds a fresh graph for a fabric name, as the CLIs and the service
// spell it: dgx1, dgx1-low, cluster:<gpus>, fc:<gpus> (fully connected),
// fcasym:<gpus> (fully connected, uneven bandwidths) or rr:<gpus> (random
// 4-regular, at least 5 GPUs).
func Named(name string) (*Graph, error) {
	switch {
	case name == "dgx1":
		return DGX1(DefaultDGX1Config()), nil
	case name == "dgx1-low":
		cfg := DefaultDGX1Config()
		cfg.LowBandwidth = true
		return DGX1(cfg), nil
	case strings.HasPrefix(name, "cluster:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "cluster:"))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad cluster size in %q", name)
		}
		return Hierarchy(DefaultHierarchyConfig(n)), nil
	case strings.HasPrefix(name, "fc:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "fc:"))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad fc size in %q", name)
		}
		return FullyConnected(n, namedBandwidth, namedLatency), nil
	case strings.HasPrefix(name, "fcasym:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "fcasym:"))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad fcasym size in %q", name)
		}
		return AsymmetricFullyConnected(n, namedBandwidth, namedLatency, namedSeed), nil
	case strings.HasPrefix(name, "rr:"):
		n, err := strconv.Atoi(strings.TrimPrefix(name, "rr:"))
		if err != nil || n < 5 {
			return nil, fmt.Errorf("bad rr size in %q (want n >= 5)", name)
		}
		return RandomRegular(n, 4, namedBandwidth, namedLatency, namedSeed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (want dgx1, dgx1-low, cluster:<n>, fc:<n>, fcasym:<n>, rr:<n>)", name)
	}
}

// The fc, fcasym and rr links (one NVLink-class lane per pair), and the
// fixed generator seed: a name always denotes the same graph, so the
// schedule cache and any two requests naming a fabric agree on its shape.
const (
	namedBandwidth = 25e9 // bytes/sec
	namedLatency   = des.Microsecond
	namedSeed      = 1
)
