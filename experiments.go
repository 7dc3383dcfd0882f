package multimap

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/experiments"
)

// ExperimentConfig scopes a figure regeneration run.
type ExperimentConfig struct {
	// Disks to evaluate (default: the paper's two drives).
	Disks []DiskModel
	// Scale in (0,1] shrinks the datasets; 1 is paper size.
	Scale float64
	// Runs repeats randomized queries (the paper uses 15).
	Runs int
	// Seed fixes the random workload.
	Seed int64
	// Policy forces the drive-internal scheduling policy for every
	// query ("fifo", "sptf", "elevator"); empty keeps each mapping's
	// preferred policy — the paper's configuration.
	Policy string
	// ChunkCells bounds the streaming planner's per-chunk expansion;
	// 0 plans each query as one chunk.
	ChunkCells int64
	// Clients is the number of concurrent sessions in the "serve"
	// throughput experiment (default 4).
	Clients int
	// Queries is how many queries each "serve" client issues
	// (default 32).
	Queries int
	// CacheBlocks sizes the "serve" experiment's shared extent cache
	// in blocks (0 = cache off).
	CacheBlocks int64
	// WriteFraction in [0,1) is the share of each "serve" client's
	// operations that are update bursts submitted through the write
	// path (0 = read-only). Raising it shows the cache hit rate fall
	// as writes invalidate hot extents.
	WriteFraction float64
	// Shards is the maximum shard count of the "serve" experiment's
	// scaling ladder: rows at 1, 2, 4, ... shards up to this value
	// (0 or 1 = single shard only).
	Shards int
	// BatchWindow is the "serve" experiment's time-based admission
	// window per shard service (0 = admit immediately).
	BatchWindow time.Duration
	// Deadline, when positive, gives the "serve" experiment's client 0
	// a context.WithTimeout deadline per query; the table reports that
	// session's completed-query latency and the services' cancelled /
	// deadline-expired drop counts.
	Deadline time.Duration
	// DeadlineAging, when positive, turns on deadline/QoS-aware
	// admission on every shard service: urgent requests (explicit
	// deadline, or queued at least this long) are served ahead of, and
	// never coalesced with, bulk work.
	DeadlineAging time.Duration
	// WriteBack turns on write-back caching with group commit on every
	// service of the "serve" and "burst" experiments: writes are
	// absorbed into dirty extent buffers and committed as one SPTF
	// batch per flush. Compare a -writes run with and without it.
	WriteBack bool
	// WBWatermark and WBInterval tune the write-back flush triggers
	// (dirty-block watermark, oldest-dirty age); 0 keeps the engine
	// defaults. Ignored unless WriteBack is set.
	WBWatermark int64
	WBInterval  time.Duration
	// FairQuantum, when positive, turns on weighted-fair
	// (deficit-round-robin) admission on every service of the "burst"
	// experiment, with the benchmark's built-in 1:4:1
	// interactive:bulk:writer weights. 0 keeps fair sharing off —
	// admission bit-identical to the pre-QoS behavior.
	FairQuantum int64
	// QoSClasses overrides the class registry used with FairQuantum
	// (mmbench -qos). Empty keeps the burst experiment's built-in
	// interactive:1, bulk:4, writer:1 mix.
	QoSClasses []QoSClass
}

// ExperimentIDs lists the regenerable paper artifacts plus the two
// analysis tables from §4.3-§4.4 and the beyond-the-paper concurrent
// serving benchmarks ("serve", "burst", and the multi-tenant pool
// churn benchmark "tenants").
func ExperimentIDs() []string {
	return []string{"fig1a", "fig1b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "eq5", "space", "serve", "burst", "tenants"}
}

// ExperimentTable is a printable experiment result.
type ExperimentTable = experiments.Table

// BurstResult is the burst benchmark's structured result: per-QoS-
// class host-latency percentiles (p50/p99, and p999 when the sample is
// large enough to support it) plus fair-share and group-commit
// evidence. mmbench -exp burst -json dumps it as JSON.
type BurstResult = experiments.BurstResult

// BurstClass is one QoS class's row in a BurstResult: its registered
// fair-share weight, traffic volume, host-latency percentiles, and how
// many of its ops the weighted-fair scheduler deferred to a later
// admission pass.
type BurstClass = experiments.BurstClass

// RunBurst runs the closed-loop burst-traffic benchmark (experiment id
// "burst") and returns its table together with the structured result,
// for callers that persist the latency trajectory (mmbench -json).
func RunBurst(cfg ExperimentConfig) (*ExperimentTable, *BurstResult, error) {
	ic, err := cfg.internal()
	if err != nil {
		return nil, nil, err
	}
	return experiments.BurstTraffic(ic)
}

// internal translates the public config for the experiments package.
func (cfg ExperimentConfig) internal() (experiments.Config, error) {
	ic := experiments.Config{
		Scale: cfg.Scale, Runs: cfg.Runs, Seed: cfg.Seed,
		Policy: cfg.Policy, ChunkCells: cfg.ChunkCells,
		Clients: cfg.Clients, Queries: cfg.Queries, CacheBlocks: cfg.CacheBlocks,
		WriteFraction: cfg.WriteFraction,
		Shards:        cfg.Shards, BatchWindow: cfg.BatchWindow,
		Deadline: cfg.Deadline, DeadlineAging: cfg.DeadlineAging,
		WriteBack: cfg.WriteBack, WBWatermark: cfg.WBWatermark, WBInterval: cfg.WBInterval,
		FairQuantum: cfg.FairQuantum,
		QoSClasses:  cfg.QoSClasses,
	}
	for _, m := range cfg.Disks {
		g, err := disk.ModelByName(string(m))
		if err != nil {
			return experiments.Config{}, err
		}
		ic.Disks = append(ic.Disks, g)
	}
	return ic, nil
}

// RunExperiment regenerates one of the paper's figures and returns its
// table. See ExperimentIDs for valid ids.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, error) {
	ic, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	switch id {
	case "fig1a":
		return experiments.Fig1aSeekProfile(ic)
	case "fig1b", "adjacency":
		return experiments.Fig1bAdjacency(ic)
	case "fig6a":
		t, _, err := experiments.Fig6aBeams(ic)
		return t, err
	case "fig6b":
		t, _, err := experiments.Fig6bRanges(ic)
		return t, err
	case "fig7a":
		t, _, err := experiments.Fig7aQuakeBeams(ic)
		return t, err
	case "fig7b":
		t, _, err := experiments.Fig7bQuakeRanges(ic)
		return t, err
	case "fig8":
		t, _, err := experiments.Fig8OLAP(ic)
		return t, err
	case "eq5":
		return experiments.DimensionSupport(ic)
	case "space":
		return experiments.SpaceEfficiency(ic)
	case "serve":
		t, _, err := experiments.ServiceThroughput(ic)
		return t, err
	case "burst":
		t, _, err := experiments.BurstTraffic(ic)
		return t, err
	case "tenants":
		t, _, err := RunTenants(cfg)
		return t, err
	default:
		return nil, fmt.Errorf("multimap: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
}
