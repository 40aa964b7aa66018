package experiments

import (
	"context"
	"fmt"

	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// ExtDGX2 is an extension beyond the paper (its §VI leaves alternative
// physical topologies as future work): C-Cube on a 16-GPU DGX-2/NVSwitch
// crossbar. The crossbar removes both physical obstacles the paper had to
// engineer around on the DGX-1 —
//
//   - every pair is connected, so the double tree needs no detour routes
//     (and no GPU pays the forwarding tax);
//   - every logical edge gets dedicated channels, so the overlapped double
//     tree works without relying on duplicated link pairs.
//
// The experiment reports the AllReduce comparison at 64MB across all
// algorithms (including halving-doubling, which thrives on the crossbar)
// and the ResNet-50 training study at 16 GPUs.
func ExtDGX2() ([]*report.Table, error) {
	g := topology.DGX2()

	comm := report.New("Extension: AllReduce on DGX-2/NVSwitch (16 GPUs, 64MB)",
		"algorithm", "total", "bandwidth", "turnaround", "detours")
	algs := []collective.Algorithm{
		collective.AlgRing,
		collective.AlgHalvingDoubling,
		collective.AlgDoubleTree,
		collective.AlgDoubleTreeOverlap,
	}
	// The crossbar's two parallel channels per pair serve the ring too: two
	// concurrent rings split the message, as on the DGX-1.
	identity := make([]int, topology.DGX2NumGPUs)
	for i := range identity {
		identity[i] = i
	}
	var base, over *collective.Result
	for _, alg := range algs {
		cfg := collective.Config{Graph: g, Algorithm: alg, Bytes: 64 << 20}
		if alg == collective.AlgRing {
			cfg.RingOrders = [][]int{identity, identity}
		}
		sched, err := collective.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("dgx2 %v: %w", alg, err)
		}
		res, err := sched.ExecuteCtx(context.TODO())
		if err != nil {
			return nil, err
		}
		if alg == collective.AlgDoubleTree {
			base = res
		}
		if alg == collective.AlgDoubleTreeOverlap {
			over = res
		}
		comm.AddRow(alg.String(), report.Time(res.Total), report.GBps(res.Bandwidth()),
			report.Time(res.Turnaround), fmt.Sprintf("%d", len(sched.DetourNodes())))
	}
	comm.AddNote("C1 over B on the crossbar: %s (DGX-1: ~1.76x) — no duplicated-link dependence",
		report.Ratio(float64(base.Total)/float64(over.Total)))

	trainT := report.New("Extension: ResNet-50 training on DGX-2 (batch 64/GPU)",
		"mode", "iteration", "normalized perf")
	for _, m := range train.Modes() {
		res, err := train.RunCtx(context.TODO(), train.Config{
			Model: dnn.ResNet50(), Batch: 64, Graph: g, Mode: m,
		})
		if err != nil {
			return nil, fmt.Errorf("dgx2 train %s: %w", m, err)
		}
		trainT.AddRow(string(m), report.Time(res.IterTime), report.F2(res.Normalized))
	}
	trainT.AddNote("16-way data parallelism; no detour forwarding tax on any GPU")
	return []*report.Table{comm, trainT}, nil
}
