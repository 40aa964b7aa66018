package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// minPairs is the fewest parent/change run pairs compare accepts.
const minPairs = 10

// Verdicts of compareRuns.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// comparison summarizes one workload × metric over paired runs.
type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	wins, pairs                   int
	verdict                       string
}

// compareRuns judges paired runs (parent[i] against change[i]):
//   - improved: the change wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's IQR;
//   - regressed: the change median is worse than the parent median by more
//     than the metric's bound;
//   - unresolved: the parent's IQR exceeds the bound and not every change
//     run beats every parent run;
//   - unchanged otherwise.
func compareRuns(d metricDef, parent, change []float64) comparison {
	c := comparison{pairs: len(parent)}
	c.parentMed, c.changeMed = median(parent), median(change)
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	for i := range parent {
		if d.worse(parent[i], change[i]) {
			c.wins++
		}
	}
	iqr := c.parentQ3 - c.parentQ1
	diff := c.changeMed - c.parentMed
	if diff < 0 {
		diff = -diff
	}
	allBetter := true
	for _, p := range parent {
		for _, ch := range change {
			allBetter = allBetter && d.worse(p, ch)
		}
	}
	limit := c.parentMed * (1 + d.bound)
	if d.better == "higher" {
		limit = c.parentMed * (1 - d.bound)
	}
	switch {
	case 10*c.wins >= 9*c.pairs && d.worse(c.parentMed, c.changeMed) && diff > iqr:
		c.verdict = improved
	case d.worse(c.changeMed, limit):
		c.verdict = regressed
	case iqr > d.bound*c.parentMed && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

func readRuns(dir string) ([]runRecord, error) {
	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name(), err)
		}
		if !r.Trace {
			runs = append(runs, r)
		}
	}
	return runs, sc.Err()
}

// pairRuns pairs each workload's parent and change runs by seed, in the
// order they were recorded.
func pairRuns(parent, change []runRecord) map[string][][2]runRecord {
	type key struct {
		workload string
		seed     uint64
	}
	queue := make(map[key][]runRecord)
	for _, r := range change {
		k := key{r.Workload, r.Seed}
		queue[k] = append(queue[k], r)
	}
	pairs := make(map[string][][2]runRecord)
	for _, p := range parent {
		k := key{p.Workload, p.Seed}
		if q := queue[k]; len(q) > 0 {
			pairs[p.Workload] = append(pairs[p.Workload], [2]runRecord{p, q[0]})
			queue[k] = q[1:]
		}
	}
	return pairs
}

// compareMain implements `benchmark compare PARENT_DIR CHANGE_DIR`. It
// exits 1 when any metric regressed and 2 on bad input.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	parent, err := readRuns(args[0])
	if err == nil {
		var change []runRecord
		if change, err = readRuns(args[1]); err == nil {
			return printComparisons(w, pairRuns(parent, change))
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
	return 2
}

// printComparisons prints one row per workload and end-to-end metric and
// returns the exit code.
func printComparisons(w io.Writer, pairs map[string][][2]runRecord) int {
	names := make([]string, 0, len(pairs))
	for n := range pairs {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark compare: no run pairs (runs pair by workload and seed)")
		return 2
	}
	status := 0
	fmt.Fprintf(w, "%-16s %-20s %24s %24s %7s  %s\n", "workload", "metric", "parent med [q1, q3]", "change med [q1, q3]", "wins", "verdict")
	for _, name := range names {
		ps := pairs[name]
		if len(ps) < minPairs {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s has %d run pairs, need %d\n", name, len(ps), minPairs)
			return 2
		}
		for _, d := range endToEnd {
			var pv, cv []float64
			for _, p := range ps {
				pv = append(pv, p[0].Metrics[d.name])
				cv = append(cv, p[1].Metrics[d.name])
			}
			c := compareRuns(d, pv, cv)
			fmt.Fprintf(w, "%-16s %-20s %24s %24s %3d/%-3d  %s\n", name, d.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.parentMed, c.parentQ1, c.parentQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.changeMed, c.changeQ1, c.changeQ3),
				c.wins, c.pairs, c.verdict)
			if c.verdict == regressed {
				status = 1
			}
		}
	}
	return status
}
