// Detour routes: the paper's §IV/Fig. 15 scenario. The DGX-1 hybrid
// mesh-cube has no direct NVLink for two of the double tree's edges; this
// example shows which pairs are missing, the static detour routes C-Cube
// installs through intermediate GPUs, how they beat the PCIe fallback, and
// what the forwarding work costs the intermediate GPUs.
//
//	go run ./examples/detour
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/topology"
	"ccube/internal/train"
)

func main() {
	// 1. The connectivity gap.
	missing := topology.DGX1MissingPairs()
	fmt.Printf("hybrid mesh-cube: %d GPU pairs have no direct NVLink\n", len(missing))
	var pairs []string
	for _, p := range missing {
		pairs = append(pairs, fmt.Sprintf("%d-%d", p[0], p[1]))
	}
	fmt.Printf("  %s\n\n", strings.Join(pairs, " "))

	// 2. The detour routes the double tree needs.
	g := topology.DGX1(topology.DefaultDGX1Config())
	sched, err := collective.Build(collective.Config{
		Graph:     g,
		Algorithm: collective.AlgDoubleTreeOverlap,
		Bytes:     64 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	fw := sched.ForwardedBytes()
	t := report.New("Static detour routes (64MB AllReduce)", "intermediate", "bytes forwarded")
	for _, n := range sched.DetourNodes() {
		t.AddRow(g.Node(n).Name, report.Bytes(fw[n]))
	}
	t.AddNote("tree 1 routes GPU2<->GPU4 through GPU0; tree 2 routes GPU3<->GPU5 through GPU1")
	fmt.Println(t.Render())

	// 3. Detour vs PCIe fallback: per-chunk cost of the two options for a
	// missing edge, and the full AllReduce with detours in place.
	cfg := topology.DefaultDGX1Config()
	cfg.IncludePCIe = true
	gp := topology.DGX1(cfg)
	detourRes, err := collective.RunCtx(context.Background(), collective.Config{
		Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	nv := g.Channel(g.ChannelsBetween(2, 0)[0])
	pcie := gp.Channel(gp.ChannelsBetween(2, 4)[0])
	fmt.Printf("edge GPU2->GPU4 options for one 1MB chunk:\n")
	fmt.Printf("  detour (2->0->4 over NVLink): %v\n", nv.TransferTime(1<<20)*2)
	fmt.Printf("  host path (PCIe):             %v\n", pcie.TransferTime(1<<20))
	fmt.Printf("  full 64MB AllReduce with detours: %v\n\n", detourRes.Total)

	// 4. The cost to the forwarding GPUs (Fig. 15).
	res, err := train.RunCtx(context.Background(), train.Config{
		Model: dnn.ResNet50(), Batch: 64, Graph: g, Mode: train.ModeCC,
	})
	if err != nil {
		log.Fatal(err)
	}
	ft := report.New("Per-GPU iteration time under C-Cube (ResNet-50, batch 64)",
		"gpu", "role", "iteration")
	for i, tm := range res.PerGPU {
		role := "compute"
		if i <= 1 {
			role = "detour forwarding"
		}
		ft.AddRow(fmt.Sprintf("GPU%d", i), role, report.Time(tm))
	}
	ft.AddNote("paper Fig. 15: forwarding costs the detour GPUs only 3-4%%")
	fmt.Println(ft.Render())
}
