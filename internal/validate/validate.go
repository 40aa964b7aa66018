// Package validate cross-checks the discrete-event simulator against the
// closed-form alpha-beta models for every algorithm, over a sweep of node
// counts and message sizes. The paper validates its own measurements the
// same way (Fig. 12(b)); this package extends the check to the whole
// algorithm zoo and keeps the two implementations honest against each other
// — a structural error in either the schedule builders or the cost formulas
// shows up as a blown relative error.
package validate

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/costmodel"
	"ccube/internal/des"
	"ccube/internal/report"
	"ccube/internal/topology"
)

// Entry is one (algorithm, P, N) comparison.
type Entry struct {
	Algorithm collective.Algorithm
	P         int
	Bytes     int64
	Measured  float64 // DES seconds
	Model     float64 // closed form seconds
}

// RelErr returns |measured-model|/model.
func (e Entry) RelErr() float64 {
	d := (e.Measured - e.Model) / e.Model
	if d < 0 {
		return -d
	}
	return d
}

// uniformFabric builds a contention-free topology with uniform per-pair
// latency (the closed forms assume uniform hop cost): two parallel channels
// per pair so double trees get dedicated channels.
func uniformFabric(p int) *topology.Graph {
	return topology.Hierarchy(topology.HierarchyConfig{
		NumGPUs:          p,
		Radix:            2,
		LinkBandwidth:    topology.NVLinkBandwidth,
		BaseLatency:      topology.NVLinkLatency,
		PerHopLatency:    0,
		ParallelChannels: 2,
	})
}

// params returns the model inputs matching uniformFabric.
func params(p int, bytes int64) costmodel.Params {
	return costmodel.Params{
		Alpha: topology.NVLinkLatency.Seconds(),
		Beta:  1 / topology.NVLinkBandwidth,
		P:     p,
		N:     float64(bytes),
	}
}

// CrossCheck runs every algorithm at every (P, N) point and pairs the DES
// time with its closed form.
func CrossCheck(ps []int, sizes []int64) ([]Entry, error) {
	var out []Entry
	for _, p := range ps {
		if p < 2 || p&(p-1) != 0 {
			return nil, fmt.Errorf("validate: P=%d must be a power of two (halving-doubling)", p)
		}
		g := uniformFabric(p)
		for _, n := range sizes {
			entries, err := checkPoint(g, p, n)
			if err != nil {
				return nil, fmt.Errorf("validate: P=%d N=%d: %w", p, n, err)
			}
			out = append(out, entries...)
		}
	}
	return out, nil
}

func checkPoint(g *topology.Graph, p int, n int64) ([]Entry, error) {
	pr := params(p, n)
	half := pr
	half.N /= 2

	identity := make([]int, p)
	for i := range identity {
		identity[i] = i
	}

	cases := []struct {
		cfg   collective.Config
		model float64
	}{
		{
			collective.Config{Graph: g, Algorithm: collective.AlgRing, Bytes: n,
				RingOrder: identity},
			costmodel.Ring(pr),
		},
		{
			collective.Config{Graph: g, Algorithm: collective.AlgHalvingDoubling, Bytes: n},
			costmodel.HalvingDoubling(pr),
		},
		{
			collective.Config{Graph: g, Algorithm: collective.AlgTree, Bytes: n},
			costmodel.Tree(pr),
		},
		{
			collective.Config{Graph: g, Algorithm: collective.AlgTreeOverlap, Bytes: n},
			costmodel.Overlapped(pr),
		},
		{
			collective.Config{Graph: g, Algorithm: collective.AlgDoubleTree, Bytes: n},
			costmodel.Tree(half),
		},
		{
			collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: n},
			costmodel.Overlapped(half),
		},
	}
	var out []Entry
	for _, c := range cases {
		res, err := collective.RunCtx(context.TODO(), c.cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c.cfg.Algorithm, err)
		}
		out = append(out, Entry{
			Algorithm: c.cfg.Algorithm,
			P:         p,
			Bytes:     n,
			Measured:  res.Total.Seconds(),
			Model:     c.model,
		})
	}
	return out, nil
}

// MaxRelErr returns the largest relative error in the set.
func MaxRelErr(entries []Entry) float64 {
	var max float64
	for _, e := range entries {
		if r := e.RelErr(); r > max {
			max = r
		}
	}
	return max
}

// Table renders the cross-check as a report table.
func Table(entries []Entry) *report.Table {
	t := report.New("Simulator vs closed-form cost models",
		"algorithm", "P", "size", "simulated", "model", "rel err")
	for _, e := range entries {
		t.AddRow(
			e.Algorithm.String(),
			fmt.Sprintf("%d", e.P),
			report.Bytes(e.Bytes),
			report.Time(des.Time(e.Measured*float64(des.Second))),
			report.Time(des.Time(e.Model*float64(des.Second))),
			report.Percent(e.RelErr()),
		)
	}
	t.AddNote("max relative error: %s", report.Percent(MaxRelErr(entries)))
	return t
}
