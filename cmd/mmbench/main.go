// Command mmbench regenerates the figures of the MultiMap paper's
// evaluation (§5) on the simulated testbed and prints the same rows and
// series the paper reports. With -remote it instead drives serve-style
// load against a running mmserved.
//
// Usage:
//
//	mmbench -exp fig6a                 # one figure, paper scale
//	mmbench -exp all -scale 0.25       # everything, quickly
//	mmbench -exp fig8 -disks atlas10k3 -runs 5 -seed 42
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	multimap "repro"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(multimap.ExperimentIDs(), ", ")+") or 'all'")
		scale    = flag.Float64("scale", 1, "dataset scale in (0,1]; 1 = paper size")
		runs     = flag.Int("runs", 0, "randomized repetitions (0 = paper's 15)")
		seed     = flag.Int64("seed", 1, "workload random seed")
		disks    = flag.String("disks", "", "comma-separated disk models (default: the paper's two drives); available: "+strings.Join(multimap.DiskModels(), ", "))
		policy   = flag.String("policy", "", "force the drive scheduler for every query: fifo or sptf (default: each mapping's preferred policy)")
		chunk    = flag.Int64("chunk", 0, "streaming-planner chunk size in cells for grid box queries (0 = plan each query as one chunk; fig7's octree leaf planner is never chunked)")
		clients  = flag.Int("clients", 0, "concurrent wire sessions for -remote (0 = default 4)")
		queries  = flag.Int("queries", 0, "operations each -remote session issues (0 = default 32)")
		writes   = flag.Float64("writes", 0, "fraction in [0,1) of each -remote session's operations that are single-point inserts (0 = read-only)")
		deadline = flag.Duration("deadline", 0, "per-operation deadline of every -remote session, sent as deadline_ms, e.g. 50ms (0 = none)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file (inspect with 'go tool pprof')")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile taken after the experiment run to this file (inspect with 'go tool pprof')")
		remote   = flag.String("remote", "", "client mode: drive serve-style load against a running mmserved daemon at this address (host:port) instead of running experiments in-process; uses -store, -class, -clients, -queries, -writes, -deadline, -seed")
		store    = flag.String("store", "", "store name on the daemon for -remote mode")
		class    = flag.String("class", "", "QoS class for -remote mode sessions (empty = the store's default)")
	)
	flag.Parse()

	// Out-of-range values are flag misuse, not workload configs: report
	// them as usage errors before any experiment spins up.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mmbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	// -scale 0 is indistinguishable from "omitted" by value (the config
	// reads 0 as paper scale), so catch an explicit zero by flag presence.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scale" && *scale == 0 {
			usageErr("-scale 0 is out of range; want a fraction in (0,1]")
		}
	})

	rc := remoteConfig{
		Addr: *remote, Store: *store, Class: *class,
		Clients: *clients, Queries: *queries,
		Writes: *writes, Deadline: *deadline, Seed: *seed,
	}
	cfg := multimap.ExperimentConfig{
		Scale: *scale, Runs: *runs, Seed: *seed,
		Policy: *policy, ChunkCells: *chunk,
	}
	if *disks != "" {
		for _, d := range strings.Split(*disks, ",") {
			cfg.Disks = append(cfg.Disks, multimap.DiskModel(strings.TrimSpace(d)))
		}
	}
	// Every numeric range has one definition: -remote's flags in its
	// config's validator, the paper's in ExperimentConfig.Validate (each
	// experiment runs it again on entry).
	if err := rc.validate(); err != nil {
		usageErr("%v", err)
	}
	if err := cfg.Defaults().Validate(); err != nil {
		usageErr("%v", err)
	}

	if *remote != "" {
		if *store == "" {
			usageErr("-remote needs -store: name the daemon store to drive")
		}
		if err := runRemote(rc); err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: remote: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *store != "" || *class != "" {
		usageErr("-store and -class only apply in -remote client mode")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		// Deferred calls run last-first: stop the profile, which writes
		// it out, before closing its file.
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = multimap.ExperimentIDs()
	}
	// Experiment failures funnel through this instead of os.Exit so the
	// profile defers above still flush their files.
	exitCode := 0
	for _, id := range ids {
		if err := runOne(os.Stdout, id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: %s: %v\n", id, err)
			exitCode = 1
			break
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: -memprofile: %v\n", err)
			exitCode = 1
		} else {
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: -memprofile: %v\n", err)
				exitCode = 1
			}
			f.Close()
		}
	}
	if exitCode != 0 {
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(exitCode)
	}
}

// runOne runs one experiment and prints its table and wall time to w.
func runOne(w io.Writer, id string, cfg multimap.ExperimentConfig) error {
	start := time.Now()
	table, err := multimap.RunExperiment(id, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, table.String())
	fmt.Fprintf(w, "(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
