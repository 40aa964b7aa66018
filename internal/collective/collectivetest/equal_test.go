package collectivetest

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/topology"
)

// TestSkipsOnlyTheSkeletonHolder: two cold builds of one config differ, to
// reflect.DeepEqual, once one has run twice and lowered its op graph, and
// DeepEqual holds them equal, also inside other values; builds that differ
// in anything else stay unequal.
func TestSkipsOnlyTheSkeletonHolder(t *testing.T) {
	cfg := collective.Config{Graph: topology.DGX1(topology.DefaultDGX1Config()),
		Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 16 << 20}
	build := func(cfg collective.Config) *collective.Schedule {
		t.Helper()
		s, err := collective.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(cfg), build(cfg)
	for range 2 {
		if _, err := a.ExecuteCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("reflect.DeepEqual does not see the lowered record; the test no longer shows anything")
	}
	if !DeepEqual(a, b) || !DeepEqual(*a, *b) {
		t.Fatal("two builds of one config differ")
	}
	type cell struct {
		Name string
		S    []*collective.Schedule
		M    map[string]any
	}
	if !DeepEqual(cell{"x", []*collective.Schedule{a}, map[string]any{"s": a}}, cell{"x", []*collective.Schedule{b}, map[string]any{"s": b}}) {
		t.Fatal("two builds of one config differ inside a cell")
	}
	other := cfg
	other.Bytes++
	chunks := cfg
	chunks.Chunks = 3
	alg := cfg
	alg.Algorithm = collective.AlgTreeOverlap
	for _, c := range []collective.Config{other, chunks, alg} {
		if DeepEqual(a, build(c)) {
			t.Fatalf("%v at %d bytes, %d chunks equals the %v at %d bytes", c.Algorithm, c.Bytes, c.Chunks, cfg.Algorithm, cfg.Bytes)
		}
	}
}

// TestMatchesReflect: on values holding no schedule, DeepEqual agrees with
// reflect.DeepEqual, unexported fields, cycles, NaN, nil against empty and
// funcs included.
func TestMatchesReflect(t *testing.T) {
	type node struct {
		v    int
		next *node
	}
	ring := func(v int) *node {
		n := &node{v: v}
		n.next = n
		return n
	}
	type hidden struct {
		f   float64
		s   []int
		m   map[int]string
		any any
	}
	nan := math.NaN()
	shared := []int{1, 2, 3}
	fn := func() {}
	cases := [][2]any{
		{1, 1}, {1, 2}, {1, int64(1)}, {"a", "a"}, {nil, nil}, {nil, 1},
		{ring(1), ring(1)}, {ring(1), ring(2)},
		{hidden{f: 1, s: []int{1}}, hidden{f: 1, s: []int{1}}},
		{hidden{s: []int{}}, hidden{s: nil}},
		{hidden{f: nan}, hidden{f: nan}},
		{hidden{m: map[int]string{1: "a"}}, hidden{m: map[int]string{1: "a"}}},
		{hidden{m: map[int]string{1: "a"}}, hidden{m: map[int]string{1: "b"}}},
		{hidden{m: map[int]string{1: "a"}}, hidden{m: map[int]string{2: "a"}}},
		{hidden{any: 1}, hidden{any: int8(1)}},
		{hidden{any: []int{1}}, hidden{any: []int{1}}},
		{shared, shared[:2]}, {shared[:2], shared[:2]},
		{[2]int{1, 2}, [2]int{1, 3}},
		{fn, fn}, {(func())(nil), (func())(nil)},
	}
	for i, c := range cases {
		if got, want := DeepEqual(c[0], c[1]), reflect.DeepEqual(c[0], c[1]); got != want {
			t.Errorf("case %d (%#v, %#v): DeepEqual = %v, reflect.DeepEqual = %v", i, c[0], c[1], got, want)
		}
	}
}
