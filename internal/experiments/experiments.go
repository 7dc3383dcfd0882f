// Package experiments regenerates every figure in the paper's
// evaluation (§5): Fig. 1(a) seek profiles, the Fig. 1(b) adjacency
// property, Fig. 6 synthetic 3-D beams and ranges, Fig. 7 earthquake
// beams and ranges, and Fig. 8 OLAP queries Q1-Q5. Each driver returns
// a Table with the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/query"
)

// Config scopes an experiment run. It is the public
// multimap.ExperimentConfig.
type Config struct {
	// Disks to evaluate, by model name; defaults to the paper's two
	// drives.
	Disks []disk.ModelName
	// Scale in (0,1] shrinks datasets for fast runs; 1 is paper size.
	Scale float64
	// Runs is the number of repetitions with random parameters
	// (the paper uses 15 for beam queries).
	Runs int
	// Seed makes runs reproducible.
	Seed int64
	// Policy forces the drive-internal scheduling policy for every
	// query ("fifo", "sptf"); empty keeps each mapping's
	// preferred policy — the paper's configuration.
	Policy string
	// ChunkCells bounds how many cells the streaming planner expands
	// per dispatch chunk; 0 plans each query as one chunk.
	ChunkCells int64
	// Clients is the number of concurrent query sessions in the
	// service-throughput experiment (default 4).
	Clients int
	// Queries is how many queries each client issues there (default 32).
	Queries int
	// CacheBlocks sizes the shared extent cache for that experiment
	// (0 = cache off).
	CacheBlocks int64
	// WriteFraction in [0,1) is the share of each client's operations
	// that are update bursts (point inserts submitted as service write
	// ops) in the service-throughput experiment. 0 = read-only.
	WriteFraction float64
	// Shards is the maximum shard count for the service-throughput
	// experiment's scaling ladder: the run repeats at 1, 2, 4, ...
	// shards up to this value (0 or 1 = single shard only).
	Shards int
	// BatchWindow is the time-based admission window of each shard
	// service in the service-throughput experiment (0 = admit
	// immediately).
	BatchWindow time.Duration
	// Deadline, when positive, gives the service-throughput
	// experiment's client 0 a context.WithTimeout deadline per query —
	// the QoS session. Queries it cannot finish in time are dropped by
	// the services (counted, not fatal) and the table reports the
	// session's observed latency separately.
	Deadline time.Duration
	// DeadlineAging, when positive, turns on deadline/QoS-aware
	// admission on every shard service (engine
	// ServiceOptions.DeadlineAging): urgent requests are served ahead
	// of — and never coalesced with — bulk work. Compare a -deadline
	// run with and without it to see the QoS policy's effect.
	DeadlineAging time.Duration
	// WriteBack turns on write-back caching with group commit on every
	// shard service: writes are absorbed into per-extent dirty buffers
	// and committed as one SPTF batch per flush trigger. Compare a
	// -writes run with and without it to see the group-commit win.
	WriteBack bool
	// WBWatermark and WBInterval tune the write-back flush triggers
	// (dirty-block watermark and oldest-dirty age); 0 keeps the engine
	// defaults. Ignored unless WriteBack is set.
	WBWatermark int64
	WBInterval  time.Duration
	// FairQuantum, when positive, turns on weighted-fair
	// (deficit-round-robin) admission on every shard service in the
	// service-throughput experiment: each admission pass grants every
	// backlogged QoS class quantum × weight blocks of simulated-cost
	// credit. 0 keeps fair sharing off — admission bit-identical to the
	// pre-QoS behavior.
	FairQuantum int64
	// QoSClasses registers the class weights used with FairQuantum.
	// Empty selects the burst experiment's built-in mix when
	// FairQuantum is positive.
	QoSClasses []engine.QoSClass
}

// Defaults fills unset fields: both paper drives, full scale, 15 runs.
func (c Config) Defaults() Config {
	if len(c.Disks) == 0 {
		c.Disks = []disk.ModelName{"atlas10k3", "cheetah36es"}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Runs == 0 {
		c.Runs = 15
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate checks every range of a defaulted config — the one
// definition the experiments and mmbench's flag parsing share.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

// resolve is Validate returning the drives' geometries.
func (c Config) resolve() ([]*disk.Geometry, error) {
	if c.Scale <= 0 || c.Scale > 1 {
		return nil, fmt.Errorf("experiments: scale %v outside (0,1]", c.Scale)
	}
	if c.Runs < 1 {
		return nil, fmt.Errorf("experiments: runs must be positive")
	}
	if c.Clients < 0 || c.Queries < 0 || c.CacheBlocks < 0 {
		return nil, fmt.Errorf("experiments: clients, queries, and cache blocks must be non-negative")
	}
	if c.WriteFraction < 0 || c.WriteFraction >= 1 {
		return nil, fmt.Errorf("experiments: write fraction %v outside [0,1)", c.WriteFraction)
	}
	if c.Shards < 0 {
		return nil, fmt.Errorf("experiments: shard count must be non-negative")
	}
	if c.BatchWindow < 0 {
		return nil, fmt.Errorf("experiments: batch window must be non-negative")
	}
	if c.Deadline < 0 || c.DeadlineAging < 0 {
		return nil, fmt.Errorf("experiments: deadline and deadline aging must be non-negative")
	}
	if c.WBWatermark < 0 || c.WBInterval < 0 {
		return nil, fmt.Errorf("experiments: write-back watermark and interval must be non-negative")
	}
	if c.FairQuantum < 0 {
		return nil, fmt.Errorf("experiments: fair-share quantum must be non-negative")
	}
	if _, err := c.execOptions(); err != nil {
		return nil, err
	}
	geoms := make([]*disk.Geometry, len(c.Disks))
	for i, m := range c.Disks {
		g, err := disk.ModelByName(string(m))
		if err != nil {
			return nil, err
		}
		geoms[i] = g
	}
	return geoms, nil
}

// execOptions translates the engine knobs for the query layer.
func (c Config) execOptions() (query.ExecOptions, error) {
	return query.ExecOptionsFor(c.Policy, c.ChunkCells)
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
