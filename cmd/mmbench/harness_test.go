package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	multimap "repro"
)

// fastCfg keeps harness runs quick: one drive, a 38³ grid.
func fastCfg() serveConfig {
	return serveConfig{ExperimentConfig: multimap.ExperimentConfig{
		Disks: []multimap.DiskModel{multimap.AtlasTenKIII}, Scale: 0.15, Runs: 3, Seed: 7,
	}}
}

// columns splits a rendered table line into its cells (two or more
// spaces apart; a drive name holds single ones).
var columns = regexp.MustCompile(`\s{2,}`)

// masked drops what a host's speed decides from mmbench's serve output:
// the q/s column (the fifth) and the "(serve in …)" wall-time line.
func masked(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "(serve in ") {
			continue
		}
		cells := columns.Split(strings.TrimSpace(line), -1)
		if len(cells) > 4 {
			cells[4] = "*"
		}
		lines = append(lines, strings.Join(cells, "  "))
	}
	return lines
}

// TestServeMatchesGolden runs the one-client serve ladder in-process and
// compares it with testdata/serve.golden: mmbench's stdout for the
// commands in it, captured from the hand-assembled rig the Store-based
// harness replaced. With one client and unchunked queries every
// simulated number is deterministic, so a diff means the stack the
// harness builds differs from the rig's; the write-heavy third command
// overflows the hot cells, so it also pins where the overflow pool
// lies. Then a chunked run must show the two chunks a session keeps in
// flight sharing an admission batch. That one is not in the golden
// file: whether a session's next chunk arrives before the loop takes
// the previous one is up to the host, and in about 1 run in 200 one
// batch more or less merges.
func TestServeMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range []struct {
		queries int
		chunk   int64
		writes  float64
	}{{32, 0, 0.3}, {32, 512, 0.3}, {128, 0, 0.9}} {
		fmt.Fprintf(&got, "$ mmbench -exp serve -disks atlas10k3 -scale 0.15 -clients 1 -queries %d -chunk %d -cache 4194304 -writes %g -shards 2 -seed 5\n",
			c.queries, c.chunk, c.writes)
		cfg := serveConfig{
			ExperimentConfig: multimap.ExperimentConfig{
				Disks: []multimap.DiskModel{multimap.AtlasTenKIII}, Scale: 0.15, Seed: 5, ChunkCells: c.chunk,
			},
			Clients: 1, Queries: c.queries, CacheBlocks: 4194304, WriteFraction: c.writes, Shards: 2,
		}
		if err := runOne(&got, "serve", cfg); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/serve.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := masked(got.String()), masked(string(want))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d:\n%s", len(gotLines), len(wantLines), got.String())
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}

	cfg := fastCfg()
	cfg.Clients, cfg.Queries, cfg.ChunkCells, cfg.Shards = 1, 32, 16, 2
	_, runs, err := serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Metrics.Totals.MaxBatchChunks < 2 {
			t.Errorf("%d shards: max batch %d, want a session's two in-flight chunks admitted together",
				r.Shards, r.Metrics.Totals.MaxBatchChunks)
		}
	}
}

// TestServeConfigRanges: the serving validator rejects every
// out-of-range value mmbench's serving flags can carry, and passes the
// zero config.
func TestServeConfigRanges(t *testing.T) {
	if err := (serveConfig{}).validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	for flag, mangle := range map[string]func(*serveConfig){
		"clients":      func(c *serveConfig) { c.Clients = -1 },
		"queries":      func(c *serveConfig) { c.Queries = -1 },
		"cache":        func(c *serveConfig) { c.CacheBlocks = -1 },
		"writes":       func(c *serveConfig) { c.WriteFraction = -0.1 },
		"writes>=1":    func(c *serveConfig) { c.WriteFraction = 1 },
		"shards":       func(c *serveConfig) { c.Shards = -1 },
		"window":       func(c *serveConfig) { c.BatchWindow = -1 },
		"deadline":     func(c *serveConfig) { c.Deadline = -1 },
		"aging":        func(c *serveConfig) { c.DeadlineAging = -1 },
		"wb-watermark": func(c *serveConfig) { c.WBWatermark = -1 },
		"wb-interval":  func(c *serveConfig) { c.WBInterval = -1 },
		"scale":        func(c *serveConfig) { c.Scale = 1.5 },
	} {
		var c serveConfig
		mangle(&c)
		if err := c.validate(); err == nil {
			t.Errorf("-%s out of range accepted: %+v", flag, c)
		}
	}
}

// sessionCells sums the client sessions' cells, and shardCells the
// cells the store's shard services attributed.
func sessionCells(r serveRun) (cells int64) {
	for _, st := range r.Sessions {
		cells += st.Cells
	}
	return cells
}

func shardCells(r serveRun) (cells int64) {
	for _, sh := range r.Metrics.Shards {
		cells += sh.Totals.Attributed.Cells
	}
	return cells
}

// TestServiceThroughput runs the serve harness small, cache off and on,
// and checks its invariants: every query completes, attribution reaches
// the table, and the cache absorbs part of the hot-region workload.
func TestServiceThroughput(t *testing.T) {
	cfg := fastCfg()
	cfg.Clients = 4
	cfg.Queries = 8
	cfg.ChunkCells = 512

	tb, runs, err := serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Shards != 1 {
		t.Fatalf("want one single-shard run for one disk: %+v", runs)
	}
	res := runs[0]
	if res.Queries != 32 || res.Wall <= 0 || res.Sum.MsPerCell() <= 0 {
		t.Fatalf("cold result wrong: %+v", res)
	}
	if res.Metrics.CacheHitRate != 0 {
		t.Fatalf("cache off but hit rate %v", res.Metrics.CacheHitRate)
	}
	if len(res.Sessions) != 4 {
		t.Fatalf("want 4 session stats, got %d", len(res.Sessions))
	}
	if cells := sessionCells(res); cells != res.Metrics.Totals.Attributed.Cells {
		t.Fatalf("session cells %d != attributed %d", cells, res.Metrics.Totals.Attributed.Cells)
	}
	if !strings.Contains(tb.String(), "q/s") {
		t.Fatalf("table missing throughput column:\n%s", tb)
	}

	cfg.CacheBlocks = 1 << 22
	_, warmRuns, err := serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmRuns[0]
	if hr := warm.Metrics.CacheHitRate; hr <= 0 || hr > 1 {
		t.Fatalf("hot-region workload should hit the cache: %+v", warm)
	}
	if warm.Metrics.Totals.IssuedRequests >= res.Metrics.Totals.IssuedRequests {
		t.Fatalf("cache did not reduce issued requests: %d vs %d",
			warm.Metrics.Totals.IssuedRequests, res.Metrics.Totals.IssuedRequests)
	}

	bad := cfg
	bad.Clients = -1
	if _, _, err := serve(bad); err == nil {
		t.Fatal("negative clients accepted")
	}
	bad = cfg
	bad.WriteFraction = 1
	if _, _, err := serve(bad); err == nil {
		t.Fatal("write fraction 1 accepted")
	}
}

// TestServiceThroughputWithWrites mixes insert bursts into the cached
// workload: the writes must reach the services as write ops, invalidate
// hot cached extents, and drag the hit rate below the read-only run's.
func TestServiceThroughputWithWrites(t *testing.T) {
	cfg := fastCfg()
	cfg.Clients = 4
	cfg.Queries = 8
	cfg.ChunkCells = 512
	cfg.CacheBlocks = 1 << 22

	_, readOnly, err := serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ro := readOnly[0]

	cfg.WriteFraction = 0.3
	tb, mixedRuns, err := serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := mixedRuns[0]
	if mixed.Metrics.Totals.WriteOps == 0 || mixed.Sum.Writes == 0 {
		t.Fatalf("write fraction 0.3 produced no write ops: %+v", mixed)
	}
	if mixed.Metrics.Totals.InvalidatedBlocks == 0 {
		t.Fatalf("hot-region writes invalidated nothing: %+v", mixed)
	}
	if mixed.Metrics.CacheHitRate >= ro.Metrics.CacheHitRate {
		t.Fatalf("hit rate did not fall under writes: %.3f (mixed) vs %.3f (read-only)",
			mixed.Metrics.CacheHitRate, ro.Metrics.CacheHitRate)
	}
	var attrWrites int64
	for _, sh := range mixed.Metrics.Shards {
		attrWrites += sh.Totals.Attributed.Writes
	}
	if mixed.Sum.Writes != attrWrites {
		t.Fatalf("session writes %d != attributed %d", mixed.Sum.Writes, attrWrites)
	}
	if !strings.Contains(tb.String(), "inval blk") {
		t.Fatalf("table missing invalidation column:\n%s", tb)
	}
}

// TestServiceThroughputSharded runs the scaling ladder at up to 4
// shards with mixed reads and writes: the ladder rows must appear, the
// queries must complete on every rung, and on each rung the per-session
// stats must still sum to the per-shard attributed totals.
func TestServiceThroughputSharded(t *testing.T) {
	cfg := fastCfg()
	cfg.Clients = 4
	cfg.Queries = 6
	cfg.ChunkCells = 512
	cfg.CacheBlocks = 1 << 22
	cfg.WriteFraction = 0.25
	cfg.Shards = 4

	tb, runs, err := serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("want rungs at 1/2/4 shards, got %d runs", len(runs))
	}
	for i, want := range []int{1, 2, 4} {
		r := runs[i]
		if r.Shards != want || len(r.Metrics.Shards) != want {
			t.Fatalf("rung %d at %d shards with %d shard totals, want %d", i, r.Shards, len(r.Metrics.Shards), want)
		}
		if r.Queries != cfg.Clients*cfg.Queries || r.Wall <= 0 {
			t.Fatalf("rung %d incomplete: %+v", i, r)
		}
		if cells, attr := sessionCells(r), shardCells(r); cells != attr {
			t.Fatalf("rung %d: session cells %d != attributed %d", i, cells, attr)
		}
		if want > 1 {
			served, wrote := 0, 0
			for _, sh := range r.Metrics.Shards {
				if sh.Totals.Batches > 0 {
					served++
				}
				if sh.Totals.WriteOps > 0 {
					wrote++
				}
			}
			if served < 2 {
				t.Fatalf("rung %d: only %d shards served work", i, served)
			}
			// Insert bursts are drawn per shard slab, so the write
			// columns measure more than shard 0.
			if wrote < 2 {
				t.Fatalf("rung %d: only %d shards served write ops", i, wrote)
			}
		}
	}
	if !strings.Contains(tb.String(), "shards") {
		t.Fatalf("table missing shards column:\n%s", tb)
	}
}

// TestRunExperimentDispatch drives runOne the way main does: the serve
// harness prints its table, a paper figure goes through the library, an
// unknown id is refused, and -exp all covers the library's nine ids plus
// serve.
func TestRunExperimentDispatch(t *testing.T) {
	cfg := fastCfg()
	cfg.Clients, cfg.Queries = 2, 4
	var out bytes.Buffer
	if err := runOne(&out, "serve", cfg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== serve", "q/s", "(serve in "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("serve output lacks %q:\n%s", want, out.String())
		}
	}
	if err := runOne(&out, "fig1b", cfg); err != nil || !strings.Contains(out.String(), "== fig1b") {
		t.Errorf("fig1b through the library: %v\n%s", err, out.String())
	}
	for _, id := range []string{"fig99", "burst", "tenants"} {
		if err := runOne(&out, id, cfg); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: got %v, want unknown experiment", id, err)
		}
	}
	if ids := experimentIDs(); len(ids) != 10 || ids[9] != "serve" {
		t.Errorf("-exp all runs %v", ids)
	}
}
