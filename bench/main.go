// Command bench is the repository's benchmark: four workloads driven
// through the public API the way users drive it, eleven end-to-end
// metrics per workload, and a traced run that adds per-layer metrics
// and span files. See README.md in this directory.
//
// The contract form, run from the repository root, measures one
// workload and prints one JSON object as its last line:
//
//	sh bench/run.sh --workload serve_cached --seed 1 --seconds 15 --trace 0
//
// Without --workload every workload runs and the full report is
// printed; -selfcheck runs the untraced suite twice and compares.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and end with the one-line JSON result (default: all)")
	seed := fs.Int64("seed", 1, "workload seed; client i uses seed+7919*i")
	seconds := fs.Float64("seconds", defaultSeconds, "timed budget per workload; at least five rounds always run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "trace"), "directory for the span files")
	scale := fs.Float64("scale", 1, "multiplies every workload's op count (never below 1000 ranges per round)")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice and compare the medians with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -scale must be positive, -trace 0 or 1")
		return 2
	}
	cfg := defaultConfig(*seed)
	cfg.scale, cfg.seconds, cfg.traceOut = *scale, *seconds, *traceOut
	todo := specs
	if *workload != "" {
		sp, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []spec{sp}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()

	if *selfcheck {
		return runSelfcheck(ctx, todo, cfg)
	}
	rep, err := runSuite(ctx, todo, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printReport(os.Stdout, rep)
	if *workload != "" {
		// The contract's result line: last on standard output.
		line, err := json.Marshal(contractResult(rep.Workloads[0], *trace == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if rep.failed() > 0 {
		return 1
	}
	return 0
}

// defaultConfig is what a run without flags pins: the paper's 259³
// grid at full size.
func defaultConfig(seed int64) config {
	return config{seed: seed, side: 259, scale: 1, seconds: defaultSeconds, minRounds: defaultMinRounds}
}

// conditions are the pinned circumstances of a run, kept in the
// artifact beside the numbers.
type conditions struct {
	Seed       int64
	Side       int
	Scale      float64
	Seconds    float64
	MinRounds  int
	Traced     bool
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	Started    string
}

// report is the artifact of one run.
type report struct {
	Conditions conditions
	Workloads  []*workloadReport
}

func (r *report) failed() (n int) {
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func pinnedConditions(cfg config, traced bool) conditions {
	return conditions{
		Seed: cfg.seed, Side: cfg.side, Scale: cfg.scale, Seconds: cfg.seconds, MinRounds: cfg.minRounds,
		Traced: traced, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: buildCommit(), Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// buildCommit is the git commit the binary was built from, as the Go
// toolchain stamped it; "unknown" outside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func runSuite(ctx context.Context, todo []spec, cfg config, traced bool) (*report, error) {
	rep := &report{Conditions: pinnedConditions(cfg, traced)}
	for _, sp := range todo {
		var w *workloadReport
		var err error
		if traced {
			w, err = runTraced(ctx, sp, cfg)
		} else {
			w, err = runWorkload(ctx, sp, cfg)
		}
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}

func printReport(w *os.File, rep *report) {
	c := rep.Conditions
	fmt.Fprintf(w, "bench: seed=%d grid=%d^3 scale=%g seconds=%g min_rounds=%d traced=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		c.Seed, c.Side, c.Scale, c.Seconds, c.MinRounds, c.Traced, c.NumCPU, c.GOMAXPROCS, c.GoVersion, c.Commit)
	for _, wl := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %d clients, %d ops and %d ranges per round, %d rounds ==\n",
			wl.Name, wl.Clients, wl.OpsPerRound, wl.RangesPerRnd, len(wl.Rounds))
		for _, r := range wl.Rounds {
			fmt.Fprintf(w, "  round %-8s start=%8.3fs wall=%7.3fs ops=%d failed=%d\n", r.Kind, r.StartS, r.WallS, r.Ops, r.Failed)
		}
		printValues(w, "end-to-end", wl.EndToEnd)
		printValues(w, "per-layer", wl.PerLayer)
		fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d\n", wl.Attempted, wl.Failed)
		for _, v := range wl.Violations {
			fmt.Fprintf(w, "  VIOLATION %s\n", v)
		}
		for _, n := range wl.Notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
		if wl.SpanFile != "" {
			fmt.Fprintf(w, "  spans: %s\n", wl.SpanFile)
		}
	}
}

func printValues(w *os.File, title string, vals []value) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-36s %-8s %14s %14s %14s %7s %9s\n", title, "unit", "median", "min", "max", "rounds", "samples")
	for _, v := range vals {
		samples := ""
		if v.PerRound > 0 {
			samples = fmt.Sprint(v.PerRound)
		}
		line := fmt.Sprintf("  %-36s %-8s %14.6g %14.6g %14.6g %7d %9s", v.Name, v.Unit, v.Median, v.Min, v.Max, v.N, samples)
		if v.Note != "" {
			line += "  (" + v.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// metricOut is one metric of the contract's result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's result line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func contractResult(w *workloadReport, traced bool) result {
	vals := w.EndToEnd
	if traced {
		vals = w.PerLayer
	}
	res := result{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]metricOut{}}
	for _, v := range vals {
		res.Metrics[v.Name] = metricOut{Value: v.Median, Unit: v.Unit}
	}
	return res
}
