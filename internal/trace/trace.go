// Package trace exports executed simulation timelines for inspection:
// Chrome trace-event JSON (load in chrome://tracing or Perfetto) and a
// compact ASCII Gantt view for terminals. Both operate on any executed
// des.Graph, so collective schedules and whole training pipelines share one
// export path.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ccube/internal/des"
)

// chromeEvent is one complete ("X" phase) trace event in the Chrome
// trace-event format. Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// chromeMeta names a lane (thread) in the viewer.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeInstant is a zero-duration ("i" phase) event, drawn as a tick on
// its lane. Scope "t" confines the tick to the thread row.
type chromeInstant struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s"`
}

// Chrome writes the executed graph as Chrome trace-event JSON. Each
// des.Resource becomes a lane holding its tasks. Zero-duration bookkeeping
// tasks (markers, joins) are emitted as instant events — on their
// resource's lane when they have one, otherwise on a shared "markers" lane
// — so synchronization points stay visible in the viewer. The graph must
// have run.
func Chrome(w io.Writer, g *des.Graph) error {
	if !g.Ran() {
		return fmt.Errorf("trace: graph has not run")
	}
	lanes := make(map[*des.Resource]int)
	var laneNames []string
	var events []any
	laneOf := func(res *des.Resource, name string) int {
		tid, ok := lanes[res]
		if !ok {
			tid = len(laneNames)
			lanes[res] = tid
			laneNames = append(laneNames, name)
		}
		return tid
	}

	for i := 0; i < g.NumTasks(); i++ {
		start, end, res := g.Start(i), g.End(i), g.Resource(i)
		if end == start {
			lane := "markers"
			if res != nil {
				lane = res.Name
			}
			events = append(events, chromeInstant{
				Name: g.Label(i),
				Ph:   "i",
				Ts:   start.Micros(),
				Pid:  0,
				Tid:  laneOf(res, lane),
				S:    "t",
			})
			continue
		}
		if res == nil {
			continue
		}
		events = append(events, chromeEvent{
			Name: g.Label(i),
			Ph:   "X",
			Ts:   start.Micros(),
			Dur:  (end - start).Micros(),
			Pid:  0,
			Tid:  laneOf(res, res.Name),
		})
	}
	for tid, name := range laneNames {
		events = append(events, chromeMeta{
			Name: "thread_name",
			Ph:   "M",
			Pid:  0,
			Tid:  tid,
			Args: map[string]string{"name": name},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// GanttOptions controls the ASCII rendering.
type GanttOptions struct {
	Width    int // characters for the time axis (default 80)
	MaxLanes int // busiest lanes shown (0 = all)
}

// Gantt renders the executed graph's resource occupancy as text: one line
// per resource, '#' where the resource is busy, ordered by busy time. When
// MaxLanes truncates the view, a "(+N more lanes)" footer says how many
// lanes were cut.
func Gantt(g *des.Graph, opts GanttOptions) string {
	if opts.Width <= 0 {
		opts.Width = 80
	}
	type lane struct {
		res   *des.Resource
		tasks []int
		busy  des.Time
	}
	byRes := make(map[*des.Resource]*lane)
	var horizon des.Time
	for i := 0; i < g.NumTasks(); i++ {
		start, end, res := g.Start(i), g.End(i), g.Resource(i)
		if end > horizon {
			horizon = end
		}
		if res == nil || end == start {
			continue
		}
		l, ok := byRes[res]
		if !ok {
			l = &lane{res: res}
			byRes[res] = l
		}
		l.tasks = append(l.tasks, i)
		l.busy += end - start
	}
	if horizon == 0 || len(byRes) == 0 {
		return "(empty timeline)\n"
	}
	lanes := make([]*lane, 0, len(byRes))
	for _, l := range byRes {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(a, b int) bool {
		if lanes[a].busy != lanes[b].busy {
			return lanes[a].busy > lanes[b].busy
		}
		return lanes[a].res.Name < lanes[b].res.Name
	})
	hidden := 0
	if opts.MaxLanes > 0 && len(lanes) > opts.MaxLanes {
		hidden = len(lanes) - opts.MaxLanes
		lanes = lanes[:opts.MaxLanes]
	}

	nameW := 0
	for _, l := range lanes {
		if len(l.res.Name) > nameW {
			nameW = len(l.res.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s |%s| 0 .. %v\n", nameW, "lane", strings.Repeat("-", opts.Width), horizon)
	cell := float64(horizon) / float64(opts.Width)
	for _, l := range lanes {
		row := make([]byte, opts.Width)
		for i := range row {
			row[i] = ' '
		}
		for _, id := range l.tasks {
			lo := int(float64(g.Start(id)) / cell)
			hi := int(float64(g.End(id)) / cell)
			if hi >= opts.Width {
				hi = opts.Width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s| %.1f%%\n", nameW, l.res.Name, row,
			100*float64(l.busy)/float64(horizon))
	}
	if hidden > 0 {
		fmt.Fprintf(&b, "(+%d more lanes)\n", hidden)
	}
	return b.String()
}
