package experiments

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/topology"
)

// InvocationOverhead models the fixed host-side cost of each separate NCCL
// AllReduce invocation (kernel launch, stream synchronization, argument
// marshalling). One-shot pays it once; layer-wise and slicing pay it per
// call — the reason the paper keeps the one-shot approach (§II-B, Fig. 3).
const InvocationOverhead = 25 * des.Microsecond

// SliceBytes is the fine-grain slicing granularity of the Fig. 3 comparison.
const SliceBytes = 512 << 10

// invocationPlan returns the per-invocation message sizes for a granularity.
func invocationPlan(granularity string, layerBytes []int64) ([]int64, error) {
	switch granularity {
	case "one-shot":
		var total int64
		for _, b := range layerBytes {
			total += b
		}
		return []int64{total}, nil
	case "layer-wise":
		out := make([]int64, 0, len(layerBytes))
		for _, b := range layerBytes {
			if b > 0 {
				out = append(out, b)
			}
		}
		return out, nil
	case "slicing":
		var out []int64
		for _, b := range layerBytes {
			for b > SliceBytes {
				out = append(out, SliceBytes)
				b -= SliceBytes
			}
			if b > 0 {
				out = append(out, b)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("experiments: unknown granularity %q", granularity)
	}
}

// GranularityBandwidth runs AllReduce at a given invocation granularity over
// the ResNet-50 parameter layout and returns the achieved bandwidth
// (total bytes / total time, invocations serialized) and the call count.
func GranularityBandwidth(g *topology.Graph, granularity string) (bw float64, calls int, err error) {
	plan, err := invocationPlan(granularity, dnn.ResNet50().LayerBytes())
	if err != nil {
		return 0, 0, err
	}
	var total des.Time
	var bytes int64
	for _, n := range plan {
		res, err := collective.RunCtx(context.TODO(), collective.Config{
			Graph:     g,
			Algorithm: collective.AlgRing,
			Bytes:     n,
		})
		if err != nil {
			return 0, 0, err
		}
		total += res.Total + InvocationOverhead
		bytes += n
	}
	return float64(bytes) / total.Seconds(), len(plan), nil
}

// Fig3 reproduces the invocation-granularity comparison: one-shot vs
// layer-wise vs slicing NCCL AllReduce with ResNet-50's parameter sizes.
// Paper headline: layer-wise loses ~2x, slicing over 4x versus one-shot.
func Fig3() ([]*report.Table, error) {
	g := dgx1()
	t := report.New("Fig 3: AllReduce bandwidth by invocation granularity (ResNet-50 parameters, DGX-1 ring)",
		"granularity", "invocations", "achieved bandwidth", "normalized to one-shot")
	oneShot, _, err := GranularityBandwidth(g, "one-shot")
	if err != nil {
		return nil, err
	}
	for _, gran := range []string{"one-shot", "layer-wise", "slicing"} {
		bw, calls, err := GranularityBandwidth(g, gran)
		if err != nil {
			return nil, err
		}
		t.AddRow(gran, fmt.Sprintf("%d", calls), report.GBps(bw), report.F2(bw/oneShot))
	}
	t.AddNote("paper: layer-wise ~2x loss, slicing >4x loss vs one-shot")
	t.AddNote("per-invocation overhead modeled as %v (launch + host sync)", InvocationOverhead)
	return []*report.Table{t}, nil
}
