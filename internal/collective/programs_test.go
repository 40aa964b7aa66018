package collective

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/programs.golden from the current builders")

// programTopologies are the fabrics of the identity grid, in golden order.
// rr:16 stays in although no built-in builds there: the golden pins that too.
var programTopologies = []struct {
	name string
	mk   func() *topology.Graph
}{
	{"dgx1", dgx1},
	{"dgx1-low", func() *topology.Graph {
		cfg := topology.DefaultDGX1Config()
		cfg.LowBandwidth = true
		return topology.DGX1(cfg)
	}},
	{"fc:4", func() *topology.Graph { return topology.FullyConnected(4, 25e9, des.Microsecond) }},
	{"fc:8", func() *topology.Graph { return topology.FullyConnected(8, 25e9, des.Microsecond) }},
	{"fc:16", func() *topology.Graph { return topology.FullyConnected(16, 25e9, des.Microsecond) }},
	{"fcasym:8", func() *topology.Graph { return topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1) }},
	{"cluster:16", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(16)) }},
	{"ring:8", func() *topology.Graph { return topology.Ring(8, 25e9, des.Microsecond) }},
	{"rr:16", func() *topology.Graph { return topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1) }},
}

// programHash digests everything a schedule's ops and claims say, field by
// field at fixed width, so the digest survives a change of the op record's
// memory layout but not of any op, dependency or relay slot.
func programHash(s *Schedule) string {
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	p := s.Program()
	put(int64(len(p.Nodes)), int64(p.NumChunks), b(p.InOrder), int64(p.Streams), b(p.AllReduce))
	for _, n := range p.Nodes {
		put(int64(n))
	}
	for _, size := range s.Partition.Sizes {
		put(size)
	}
	put(int64(len(p.Ops)))
	for i := range p.Ops {
		op := &p.Ops[i]
		put(int64(i), int64(op.Chunk), s.opBytes(op), int64(op.Channel),
			int64(op.Src.Node), int64(op.Src.Relay), int64(op.Dst.Node), int64(op.Dst.Relay),
			b(op.Accumulate), b(op.NoAlpha), int64(op.Final), int64(len(p.Deps(i))))
		for _, d := range p.Deps(i) {
			put(int64(d))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// builtPrograms renders one line per configuration of the identity grid:
// its name and either its program hash and op count or "unbuildable".
func builtPrograms() []byte {
	var out bytes.Buffer
	line := func(name string, s *Schedule, err error) {
		if err != nil {
			fmt.Fprintf(&out, "%s unbuildable\n", name)
			return
		}
		fmt.Fprintf(&out, "%s %s %d\n", name, programHash(s), s.NumTransfers())
	}
	const size = 1<<20 + 7 // uneven chunks
	for _, tp := range programTopologies {
		for alg := AlgRing; alg <= AlgHalvingDoubling; alg++ {
			for _, k := range []int{0, 1, 16} {
				for _, shared := range []bool{false, true} {
					s, err := Build(Config{Graph: tp.mk(), Algorithm: alg, Bytes: size, Chunks: k, AllowSharedChannels: shared})
					line(fmt.Sprintf("%s/%v/k=%d/shared=%v", tp.name, alg, k, shared), s, err)
				}
			}
		}
		for _, prim := range []Primitive{PrimBroadcast, PrimReduce} {
			for _, root := range []int{0, 1} {
				s, err := BuildPrimitive(PrimitiveConfig{Graph: tp.mk(), Primitive: prim, Bytes: size, Root: root})
				line(fmt.Sprintf("%s/%v/root=%d", tp.name, prim, root), s, err)
			}
		}
	}
	for _, boxes := range []int{2, 4} {
		for _, chained := range []bool{true, false} {
			mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
			if err != nil {
				panic(err)
			}
			s, err := BuildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 16<<20 + 7, Chained: chained})
			line(fmt.Sprintf("hierarchical/boxes=%d/chained=%v", boxes, chained), s, err)
		}
	}
	return out.Bytes()
}

// TestBuiltProgramsGolden pins every built-in schedule op for op: the
// AllReduce algorithms over 9 fabrics × 6 algorithms × 3 chunkings × the
// shared-channel flag, the Broadcast and Reduce primitives at their default
// and a rerooted root, and hierarchical chained and barrier at 2 and 4
// boxes. After reviewing a deliberate schedule change, regenerate with
// go test ./internal/collective -run TestBuiltProgramsGolden -update.
func TestBuiltProgramsGolden(t *testing.T) {
	got := builtPrograms()
	path := filepath.Join("testdata", "programs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}
