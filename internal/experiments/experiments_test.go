package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
)

// fastCfg keeps integration runs quick: one small drive, scaled
// datasets, few repetitions.
func fastCfg() Config {
	return Config{
		Disks: []disk.ModelName{"atlas10k3"},
		Scale: 0.15,
		Runs:  3,
		Seed:  7,
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if len(c.Disks) != 2 || c.Scale != 1 || c.Runs != 15 || c.Seed == 0 {
		t.Errorf("defaults wrong: %+v", c)
	}
	bad := Config{Scale: 2, Runs: 1, Seed: 1, Disks: c.Disks}
	if err := bad.Validate(); err == nil {
		t.Error("scale 2 accepted")
	}
	bad = Config{Scale: 0.5, Runs: 0, Seed: 1, Disks: c.Disks}
	bad.Runs = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative runs accepted")
	}
}

// TestConfigValidateRanges: the one validator rejects every
// out-of-range value mmbench's figure flags can carry, an unknown drive
// and a removed policy — and passes the zero config once Defaults has
// filled it.
func TestConfigValidateRanges(t *testing.T) {
	if err := (Config{}).Defaults().Validate(); err != nil {
		t.Fatalf("defaulted zero config rejected: %v", err)
	}
	for flag, mangle := range map[string]func(*Config){
		"scale":   func(c *Config) { c.Scale = 1.5 },
		"scale<0": func(c *Config) { c.Scale = -0.5 },
		"runs":    func(c *Config) { c.Runs = -1 },
		"chunk":   func(c *Config) { c.ChunkCells = -1 },
		"disks":   func(c *Config) { c.Disks = []disk.ModelName{"nonsense"} },
		"policy":  func(c *Config) { c.Policy = "elevator" },
	} {
		c := Config{}
		mangle(&c)
		if err := c.Defaults().Validate(); err == nil {
			t.Errorf("-%s out of range accepted: %+v", flag, c)
		}
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "bb") {
		t.Errorf("table render wrong:\n%s", s)
	}
}

func TestFig1aSeekProfile(t *testing.T) {
	tb, err := Fig1aSeekProfile(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 10 {
		t.Fatalf("too few distances: %d", len(tb.Rows))
	}
	// First rows (within the settle range) must show the plateau.
	if tb.Rows[0][1] != tb.Rows[1][1] {
		t.Errorf("no settle plateau: %v vs %v", tb.Rows[0], tb.Rows[1])
	}
}

func TestFig1bAdjacencyFlat(t *testing.T) {
	tb, err := Fig1bAdjacency(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatal("too few adjacency depths")
	}
	// Adjacent-block positioning must beat the rotational-latency
	// comparison column at every depth.
	for _, row := range tb.Rows {
		var adj, rot float64
		if _, err := sscan(row[1], &adj); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[2], &rot); err != nil {
			t.Fatal(err)
		}
		if adj >= rot {
			t.Errorf("k=%s: adjacent %.3f not better than rotational %.3f", row[0], adj, rot)
		}
	}
}

func TestFig6aSmoke(t *testing.T) {
	// Small-scale plumbing check. The MultiMap-vs-Naive orderings on
	// Dim1/Dim2 only emerge once the Dim1 stride spans a sizeable
	// fraction of a rotation — which is exactly why the paper uses
	// 259-cell chunks; see TestFig6aPaperScale.
	_, res, err := Fig6aBeams(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for diskName, byKind := range res {
		naive := byKind["Naive"]
		mm := byKind["MultiMap"]
		z := byKind["Z-order"]
		h := byKind["Hilbert"]
		// Dim0: Naive and MultiMap stream; curves are orders slower.
		if naive[0]*5 > z[0] || mm[0]*5 > h[0] {
			t.Errorf("%s: Dim0 streaming gap missing: naive=%.3f mm=%.3f z=%.3f h=%.3f",
				diskName, naive[0], mm[0], z[0], h[0])
		}
		// Even at toy scale MultiMap must beat the curve mappings on
		// the non-major dimensions.
		for d := 1; d < 3; d++ {
			if mm[d] >= z[d] || mm[d] >= h[d] {
				t.Errorf("%s: Dim%d MultiMap %.3f not better than curves (z %.3f h %.3f)",
					diskName, d, mm[d], z[d], h[d])
			}
		}
	}
}

func TestFig6aPaperScale(t *testing.T) {
	cfg := Config{Disks: []disk.ModelName{"atlas10k3"}, Scale: 1, Runs: 5, Seed: 3}
	_, res, err := Fig6aBeams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for diskName, byKind := range res {
		naive := byKind["Naive"]
		mm := byKind["MultiMap"]
		z := byKind["Z-order"]
		h := byKind["Hilbert"]
		// Streaming on Dim0: two orders of magnitude over the curves.
		if naive[0]*50 > z[0] || mm[0]*50 > h[0] {
			t.Errorf("%s: Dim0 gap not ~2 orders: naive=%.3f mm=%.3f z=%.3f h=%.3f",
				diskName, naive[0], mm[0], z[0], h[0])
		}
		if mm[0] > naive[0]*1.5 {
			t.Errorf("%s: MultiMap Dim0 %.3f does not match Naive streaming %.3f", diskName, mm[0], naive[0])
		}
		// Dim1/Dim2: MultiMap strictly best, as in Fig. 6(a).
		for d := 1; d < 3; d++ {
			if mm[d] >= naive[d] || mm[d] >= z[d] || mm[d] >= h[d] {
				t.Errorf("%s: Dim%d MultiMap %.3f not best (naive %.3f z %.3f h %.3f)",
					diskName, d, mm[d], naive[d], z[d], h[d])
			}
		}
	}
}

func TestFig6bSmoke(t *testing.T) {
	_, res, err := Fig6bRanges(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for diskName, byKind := range res {
		for kind, bySel := range byKind {
			for sel, sp := range bySel {
				if sp <= 0 {
					t.Errorf("%s/%s: non-positive speedup at %g%%", diskName, kind, sel)
				}
			}
		}
	}
}

func TestFig6bPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale fig6b: ≈ 2.5 s plain, ≈ 18 s under -race at GOMAXPROCS 2")
	}
	cfg := Config{Disks: []disk.ModelName{"atlas10k3"}, Scale: 1, Runs: 3, Seed: 3}
	_, res, err := Fig6bRanges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for diskName, byKind := range res {
		mm := byKind["MultiMap"]
		best := 0.0
		for sel, sp := range mm {
			if sp > best {
				best = sp
			}
			// Fig. 6(b): MultiMap's worst case in the paper is 6% slower
			// than Naive in the 10-40% band on one disk; our simulator
			// reproduces the dip slightly deeper (~0.75) because Naive's
			// mid-selectivity runs coalesce into perfectly sequential
			// sweeps with no per-request overhead.
			if sp < 0.7 {
				t.Errorf("%s: MultiMap speedup %.2f at %g%%, never below ~0.9 in the paper",
					diskName, sp, sel)
			}
		}
		if best < 1.5 {
			t.Errorf("%s: MultiMap max speedup %.2f, paper reaches ~3.5", diskName, best)
		}
		// Convergence at 100% selectivity.
		for kind, bySel := range byKind {
			if sp := bySel[100]; sp < 0.5 || sp > 2 {
				t.Errorf("%s/%s: no convergence at 100%% (speedup %.2f)", diskName, kind, sp)
			}
		}
	}
}

func TestFig7aShape(t *testing.T) {
	cfg := Config{Disks: []disk.ModelName{"atlas10k3"}, Scale: 0.5, Runs: 8, Seed: 7}
	_, res, err := Fig7aQuakeBeams(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for diskName, byKind := range res {
		naive := byKind["Naive"]
		mm := byKind["MultiMap"]
		z := byKind["Z-order"]
		h := byKind["Hilbert"]
		// MultiMap best on every axis (Fig. 7a), with X matching
		// Naive's streaming.
		for axis := 0; axis < 3; axis++ {
			if mm[axis] >= z[axis] || mm[axis] >= h[axis] {
				t.Errorf("%s: axis %d MultiMap %.3f not better than curves (z %.3f h %.3f)",
					diskName, axis, mm[axis], z[axis], h[axis])
			}
		}
		for axis := 1; axis < 3; axis++ {
			if mm[axis] >= naive[axis] {
				t.Errorf("%s: axis %d MultiMap %.3f not better than Naive %.3f",
					diskName, axis, mm[axis], naive[axis])
			}
		}
		if mm[0] > naive[0]*1.5 {
			t.Errorf("%s: X beam MultiMap %.3f vs Naive %.3f: streaming parity lost",
				diskName, mm[0], naive[0])
		}
	}
}

func TestFig7bRuns(t *testing.T) {
	tb, res, err := Fig7bQuakeRanges(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(Fig7bSelectivities) {
		t.Fatalf("got %d rows, want %d", len(tb.Rows), len(Fig7bSelectivities))
	}
	for diskName, byKind := range res {
		for kind, bySel := range byKind {
			for sel, ms := range bySel {
				if ms <= 0 {
					t.Errorf("%s/%s: selectivity %g: non-positive time", diskName, kind, sel)
				}
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	cfg := fastCfg()
	cfg.Scale = 0.5 // OLAP orderings need realistic physical spread
	_, res, err := Fig8OLAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for diskName, byKind := range res {
		naive := byKind["Naive"]
		mm := byKind["MultiMap"]
		z := byKind["Z-order"]
		if naive["Q1"]*5 > z["Q1"] {
			t.Errorf("%s: Q1 Naive %.3f vs Z %.3f: streaming gap missing", diskName, naive["Q1"], z["Q1"])
		}
		if mm["Q2"] >= naive["Q2"] || mm["Q2"] >= z["Q2"] {
			t.Errorf("%s: Q2 MultiMap %.3f not best (naive %.3f z %.3f)",
				diskName, mm["Q2"], naive["Q2"], z["Q2"])
		}
		if mm["Q5"] >= naive["Q5"] {
			t.Errorf("%s: Q5 MultiMap %.3f not better than Naive %.3f",
				diskName, mm["Q5"], naive["Q5"])
		}
	}
}

func TestFig8PaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale fig8: ≈ 0.6 s plain, ≈ 7 s under -race at GOMAXPROCS 2")
	}
	cfg := Config{Disks: []disk.ModelName{"atlas10k3"}, Scale: 1, Runs: 2, Seed: 3}
	_, res, err := Fig8OLAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for diskName, byKind := range res {
		naive := byKind["Naive"]
		mm := byKind["MultiMap"]
		z := byKind["Z-order"]
		h := byKind["Hilbert"]
		// Q1: Naive and MultiMap two orders ahead of the curves.
		if naive["Q1"]*50 > z["Q1"] || mm["Q1"]*50 > h["Q1"] {
			t.Errorf("%s: Q1 streaming gap not ~2 orders: %v", diskName, byKind)
		}
		// Q2: curves beat Naive; MultiMap best.
		if z["Q2"] >= naive["Q2"] || h["Q2"] >= naive["Q2"] {
			t.Errorf("%s: Q2 curves should beat Naive: %v", diskName, byKind)
		}
		if mm["Q2"] >= z["Q2"] || mm["Q2"] >= h["Q2"] {
			t.Errorf("%s: Q2 MultiMap not best: %v", diskName, byKind)
		}
		// Q3/Q4: Naive beats curves; MultiMap stays in Naive's league.
		// (Whether MultiMap lands slightly above or below Naive depends
		// on whether the random year window straddles a basic-cube
		// boundary along OrderDay; the paper's averages put it slightly
		// below.)
		for _, q := range []string{"Q3", "Q4"} {
			if naive[q] >= z[q] || naive[q] >= h[q] {
				t.Errorf("%s: %s Naive should beat curves: %v", diskName, q, byKind)
			}
			if mm[q] > naive[q]*1.6 {
				t.Errorf("%s: %s MultiMap %.3f vs Naive %.3f", diskName, q, mm[q], naive[q])
			}
		}
		// Q5: MultiMap best, clearly ahead of Hilbert and Naive.
		if mm["Q5"] >= h["Q5"] || mm["Q5"] >= naive["Q5"] {
			t.Errorf("%s: Q5 MultiMap not best: %v", diskName, byKind)
		}
	}
}

// sscan parses one float rendered by the table formatter.
func sscan(s string, out *float64) (int, error) {
	return fmt.Sscanf(s, "%f", out)
}
