package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// endToEndMetric is one end-to-end metric as BENCHMARK.json declares
// it: the direction that is better and the share of the parent's median
// by which it may get worse.
type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndMetrics repeats BENCHMARK.json's end_to_end list, which lies
// outside this directory, so that the self-check does not depend on
// where it runs from; TestManifestMatches keeps the two equal.
var endToEndMetrics = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"range_p50_ms", "ms", "lower", 0.25},
	{"range_p99_ms", "ms", "lower", 0.25},
	{"beam_p50_ms", "ms", "lower", 0.25},
	{"first_chunk_p50_ms", "ms", "lower", 0.25},
	{"sim_ms_per_op", "sim_ms", "lower", 0.05},
	{"sim_ms_per_cell", "sim_ms", "lower", 0.05},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"live_heap_mb", "MiB", "lower", 0.15},
}

// runSelfcheck runs the untraced suite twice on the same code and
// prints, per workload and end-to-end metric, both medians, how much
// worse the second is than the first, and the bound; a pair outside
// its bound in either direction is flagged. A benchmark that cannot
// agree with itself cannot judge a change.
func runSelfcheck(ctx context.Context, todo []spec, cfg config) int {
	var runs [2]*report
	for i := range runs {
		var err error
		if runs[i], err = runSuite(ctx, todo, cfg, false); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	flagged := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for wi, w := range runs[0].Workloads {
		for _, m := range endToEndMetrics {
			a, ok := findValue(w.EndToEnd, m.Name)
			b, ok2 := findValue(runs[1].Workloads[wi].EndToEnd, m.Name)
			if !ok || !ok2 {
				fmt.Printf("%-14s %-20s missing\n", w.Name, m.Name)
				flagged++
				continue
			}
			worse := worseBy(a.Median, b.Median, m.Better)
			mark := ""
			if math.Abs(worse) > m.Bound {
				mark = "  OUTSIDE"
				flagged++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.Name, m.Name, a.Median, b.Median, worse*100, m.Bound*100, mark)
		}
	}
	failed := runs[0].failed() + runs[1].failed()
	fmt.Printf("selfcheck: %d pairs outside their bound, %d failed ops\n", flagged, failed)
	if flagged > 0 || failed > 0 {
		return 1
	}
	return 0
}

func findValue(vals []value, name string) (value, bool) {
	for _, v := range vals {
		if v.Name == name {
			return v, true
		}
	}
	return value{}, false
}

// worseBy is how much worse b is than a as a share of a: positive when
// b moved in the direction the metric calls worse.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}
