// Command mmbench regenerates the figures of the MultiMap paper's
// evaluation (§5) on the simulated testbed and prints the same rows and
// series the paper reports.
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
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	multimap "repro"
)

// parseQoSSpecs turns the -qos value — comma-separated
// name:weight[:urgent] specs — into a class registry. An empty value
// means "use the experiment's built-in mix".
func parseQoSSpecs(specs string) ([]multimap.QoSClass, error) {
	if specs == "" {
		return nil, nil
	}
	var classes []multimap.QoSClass
	for _, spec := range strings.Split(specs, ",") {
		parts := strings.Split(strings.TrimSpace(spec), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("-qos spec %q is malformed; want name:weight[:urgent]", spec)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("-qos spec %q has an empty class name", spec)
		}
		weight, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || weight < 1 {
			return nil, fmt.Errorf("-qos spec %q: weight %q must be a positive integer", spec, parts[1])
		}
		urgent := false
		if len(parts) == 3 {
			if strings.TrimSpace(parts[2]) != "urgent" {
				return nil, fmt.Errorf("-qos spec %q: third field must be the literal \"urgent\"", spec)
			}
			urgent = true
		}
		for _, c := range classes {
			if c.Name == name {
				return nil, fmt.Errorf("-qos class %q registered twice", name)
			}
		}
		classes = append(classes, multimap.QoSClass{Name: name, Weight: weight, Urgent: urgent})
	}
	return classes, nil
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(multimap.ExperimentIDs(), ", ")+") or 'all'")
		scale    = flag.Float64("scale", 1, "dataset scale in (0,1]; 1 = paper size")
		runs     = flag.Int("runs", 0, "randomized repetitions (0 = paper's 15)")
		seed     = flag.Int64("seed", 1, "workload random seed")
		disks    = flag.String("disks", "", "comma-separated disk models (default: the paper's two drives); available: "+strings.Join(multimap.DiskModels(), ", "))
		policy   = flag.String("policy", "", "force the drive scheduler for every query: fifo or sptf (default: each mapping's preferred policy)")
		chunk    = flag.Int64("chunk", 0, "streaming-planner chunk size in cells for grid box queries (0 = plan each query as one chunk; fig7's octree leaf planner is never chunked)")
		clients  = flag.Int("clients", 0, "concurrent query sessions for -exp serve (0 = default 4); the table reports queries/sec, cache hit rate, and per-query ms/cell")
		queries  = flag.Int("queries", 0, "queries each -exp serve client issues (0 = default 32)")
		cache    = flag.Int64("cache", 0, "shared extent-cache capacity in blocks for -exp serve (0 = cache off)")
		writes   = flag.Float64("writes", 0, "fraction in [0,1) of each -exp serve client's operations that are update bursts through the write path (0 = read-only)")
		shards   = flag.Int("shards", 0, "max shard count for -exp serve: the dataset is split along Dim0 across N volumes/services and the table gains scaling rows at 1, 2, 4, ... N shards (0 or 1 = single shard)")
		window   = flag.Duration("window", 0, "time-based admission window per shard service for -exp serve, e.g. 200us (0 = admit immediately)")
		deadline = flag.Duration("deadline", 0, "per-query context deadline for -exp serve's client 0, e.g. 5ms (0 = none); the table reports that session's ms/query plus cancelled and deadline-expired drop counts")
		aging    = flag.Duration("aging", 0, "deadline/QoS-aware admission aging for -exp serve, e.g. 1ms: urgent requests (explicit deadline, or queued at least this long) are served ahead of bulk work (0 = off); compare -deadline runs with and without it")
		wb       = flag.Bool("wb", false, "write-back caching with group commit on every -exp serve/burst service: writes are absorbed into dirty extent buffers and committed as one SPTF batch per flush; the tables gain flushes/coalesced columns")
		wbWater  = flag.Int64("wb-watermark", 0, "write-back flush watermark in dirty blocks (0 = engine default); needs -wb")
		wbIvl    = flag.Duration("wb-interval", 0, "write-back flush interval, e.g. 2ms: dirty data older than this is committed (0 = engine default); needs -wb")
		fair     = flag.Int64("fair", 0, "weighted-fair (deficit-round-robin) admission quantum in blocks for -exp burst/tenants, e.g. 1024: each admission pass grants every backlogged QoS class quantum*weight blocks of credit (omit = fair sharing off)")
		qos      = flag.String("qos", "", "comma-separated QoS class specs name:weight[:urgent] registered for -fair runs, e.g. 'interactive:1,bulk:4,ops:2:urgent' (default: the burst benchmark's built-in interactive:1,bulk:4,writer:1 mix); needs -fair")
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
	// -fair 0 and -scale 0 are indistinguishable from "omitted" by value
	// (the config reads 0 as fair sharing off / paper scale), so catch an
	// explicit zero by flag presence: a stated quantum or scale must be
	// positive.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fair" && *fair <= 0 {
			usageErr("-fair %d is not a usable quantum; want a positive number of blocks (omit the flag to keep fair sharing off)", *fair)
		}
		if f.Name == "scale" && *scale == 0 {
			usageErr("-scale 0 is out of range; want a fraction in (0,1]")
		}
	})
	qosClasses, err := parseQoSSpecs(*qos)
	if err != nil {
		usageErr("%v", err)
	}
	if len(qosClasses) > 0 && *fair <= 0 {
		usageErr("-qos needs -fair: class weights only apply under weighted-fair admission")
	}

	cfg := multimap.ExperimentConfig{
		Scale: *scale, Runs: *runs, Seed: *seed,
		Policy: *policy, ChunkCells: *chunk,
		Clients: *clients, Queries: *queries, CacheBlocks: *cache,
		WriteFraction: *writes,
		Shards:        *shards, BatchWindow: *window,
		Deadline: *deadline, DeadlineAging: *aging,
		WriteBack: *wb, WBWatermark: *wbWater, WBInterval: *wbIvl,
		FairQuantum: *fair, QoSClasses: qosClasses,
	}
	if *disks != "" {
		for _, d := range strings.Split(*disks, ",") {
			cfg.Disks = append(cfg.Disks, multimap.DiskModel(strings.TrimSpace(d)))
		}
	}
	// Every numeric range has one definition, the config's own validator
	// (each experiment runs it again on entry).
	if err := cfg.Defaults().Validate(); err != nil {
		usageErr("%v", err)
	}

	if *remote != "" {
		if *store == "" {
			usageErr("-remote needs -store: name the daemon store to drive")
		}
		if err := runRemote(remoteConfig{
			Addr: *remote, Store: *store, Class: *class,
			Clients: *clients, Queries: *queries,
			Writes: *writes, Deadline: *deadline, Seed: *seed,
		}); err != nil {
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
		defer pprof.StopCPUProfile()
		defer f.Close()
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = multimap.ExperimentIDs()
	}
	// Experiment failures funnel through this instead of os.Exit so the
	// profile defers above still flush their files.
	exitCode := 0
	for _, id := range ids {
		start := time.Now()
		table, err := multimap.RunExperiment(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: %s: %v\n", id, err)
			exitCode = 1
			break
		}
		fmt.Print(table.String())
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
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
