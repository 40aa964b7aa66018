package server

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/topology"
)

// busiestChannelsFormatAll is busiestChannels as it was: it named every
// busy channel, then ranked the names and kept topN.
func busiestChannelsFormatAll(g *topology.Graph, res *collective.Result, topN int) []ChannelUse {
	uses := make([]ChannelUse, 0, topN)
	for i, busy := range res.ChannelBusy {
		if busy <= 0 {
			continue
		}
		ch := g.Channel(topology.ChannelID(i))
		uses = append(uses, ChannelUse{
			Channel:     fmt.Sprintf("%s->%s (%s)", g.Node(ch.From).Name, g.Node(ch.To).Name, ch.Tag),
			Utilization: res.Utilization(topology.ChannelID(i)),
		})
	}
	sort.Slice(uses, func(a, b int) bool { return uses[a].Utilization > uses[b].Utilization })
	if len(uses) > topN {
		uses = uses[:topN]
	}
	return uses
}

// TestBusiestChannelsMatchesFormatAll: ranking (channel, utilization)
// pairs and naming only the top N returns exactly what naming every busy
// channel first did, ties included — sort.Slice's permutation depends only
// on the comparison results, which the two share.
func TestBusiestChannelsMatchesFormatAll(t *testing.T) {
	cases := []struct {
		name string
		cfg  collective.Config
	}{
		{"dgx1/ring", collective.Config{Graph: topology.DGX1(topology.DefaultDGX1Config()),
			Algorithm: collective.AlgRing, Bytes: 64 << 20}},
		{"dgx1/ccube", collective.Config{Graph: topology.DGX1(topology.DefaultDGX1Config()),
			Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20}},
		{"cluster64/ccube", collective.Config{Graph: topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
			Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128, AllowSharedChannels: true}},
		{"cluster64/ring", collective.Config{Graph: topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
			Algorithm: collective.AlgRing, Bytes: 64 << 20, AllowSharedChannels: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := collective.Build(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			seen := map[float64]bool{}
			ties := false
			for i, busy := range res.ChannelBusy {
				u := res.Utilization(topology.ChannelID(i))
				ties = ties || (busy > 0 && seen[u])
				seen[u] = true
			}
			if !ties {
				t.Fatal("no two busy channels tie: the case does not exercise tie order")
			}
			for _, topN := range []int{1, 8, 1 << 20} {
				got := busiestChannels(c.cfg.Graph, res, topN)
				want := busiestChannelsFormatAll(c.cfg.Graph, res, topN)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("top %d:\ngot  %v\nwant %v", topN, got, want)
				}
			}
		})
	}
}
