// Package experiments regenerates every figure in the paper's
// evaluation (§5): Fig. 1(a) seek profiles, the Fig. 1(b) adjacency
// property, Fig. 6 synthetic 3-D beams and ranges, Fig. 7 earthquake
// beams and ranges, and Fig. 8 OLAP queries Q1-Q5. Each driver returns
// a Table with the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/disk"
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
