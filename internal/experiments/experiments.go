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

// experiment is one regenerable paper artifact: its id and its driver.
// A driver returns the printable table and, when it has one, the result
// map behind it at full precision (nil otherwise).
type experiment struct {
	id  string
	run func(Config) (*Table, any, error)
}

// paper is the one id→driver table. IDs, Run, mmbench -exp and the
// golden test read it, so an artifact added here is pinned by a golden
// file from the start.
var paper = []experiment{
	{"fig1a", tableOnly(Fig1aSeekProfile)},
	{"fig1b", tableOnly(Fig1bAdjacency)},
	{"fig6a", withResult(Fig6aBeams)},
	{"fig6b", withResult(Fig6bRanges)},
	{"fig7a", withResult(Fig7aQuakeBeams)},
	{"fig7b", withResult(Fig7bQuakeRanges)},
	{"fig8", withResult(Fig8OLAP)},
	{"eq5", tableOnly(DimensionSupport)},
	{"space", tableOnly(SpaceEfficiency)},
}

func tableOnly(f func(Config) (*Table, error)) func(Config) (*Table, any, error) {
	return func(cfg Config) (*Table, any, error) {
		t, err := f(cfg)
		return t, nil, err
	}
}

func withResult[R any](f func(Config) (*Table, R, error)) func(Config) (*Table, any, error) {
	return func(cfg Config) (*Table, any, error) { return f(cfg) }
}

// IDs lists the paper's regenerable artifacts in the order mmbench
// -exp all runs them.
func IDs() []string {
	ids := make([]string, len(paper))
	for i, e := range paper {
		ids[i] = e.id
	}
	return ids
}

// Run regenerates the artifact id and returns its table.
func Run(id string, cfg Config) (*Table, error) {
	for _, e := range paper {
		if e.id == id {
			t, _, err := e.run(cfg)
			return t, err
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
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
