// Package ccube reproduces "Logical/Physical Topology-Aware Collective
// Communication in Deep Learning Training" (HPCA 2023): the C-Cube
// architecture that chains the reduction and broadcast phases of a tree
// AllReduce over idle link directions (C1), chains the resulting in-order
// chunk stream into the next iteration's forward computation via gradient
// queuing (C2), and exploits the DGX-1's physical topology — detour routes
// through intermediate GPUs and duplicated NVLink pairs — to run the scheme
// on a double tree (CC).
//
// The implementation lives under internal/: see internal/collective for
// the algorithms, internal/train for the training-iteration simulator,
// internal/gpusim for the persistent-kernel emulation, and
// internal/experiments for the figure reproductions. The benches in bench_test.go regenerate every
// figure of the paper's evaluation; cmd/ccube-bench prints them as tables.
package ccube
