package experiments

import (
	"strings"
	"testing"

	"repro/internal/disk"
)

// atlas is the drive name fastCfg's runs are keyed by in a ServeResult.
var atlas = disk.AtlasTenKIII().Name

// TestServiceThroughput runs the concurrent serving benchmark at a
// small scale, cache off and on, and checks its invariants: every query
// completes, attribution reaches the table, and the cache absorbs part
// of the hot-region workload.
func TestServiceThroughput(t *testing.T) {
	cfg := fastCfg()
	cfg.Clients = 4
	cfg.Queries = 8
	cfg.ChunkCells = 512

	tb, byDisk, err := ServiceThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(byDisk) != len(cfg.Disks) {
		t.Fatalf("want one run per disk, got %d for %d disks", len(byDisk), len(cfg.Disks))
	}
	runs, ok := byDisk[atlas]
	if !ok || len(runs) != 1 {
		t.Fatalf("want one single-shard run for %s: %v", atlas, byDisk)
	}
	res := runs[0]
	if res.Shards != 1 {
		t.Fatalf("default run sharded: %+v", res)
	}
	if res.Queries != 32 || res.QueriesPerSec <= 0 || res.MsPerCell <= 0 {
		t.Fatalf("cold result wrong: %+v", res)
	}
	if res.HitRate != 0 {
		t.Fatalf("cache off but hit rate %v", res.HitRate)
	}
	if len(res.PerSession) != 4 {
		t.Fatalf("want 4 session stats, got %d", len(res.PerSession))
	}
	var cells int64
	for _, st := range res.PerSession {
		cells += st.Cells
	}
	if cells != res.Totals.Attributed.Cells {
		t.Fatalf("session cells %d != attributed %d", cells, res.Totals.Attributed.Cells)
	}
	if !strings.Contains(tb.String(), "q/s") {
		t.Fatalf("table missing throughput column:\n%s", tb)
	}

	cfg.CacheBlocks = 1 << 22
	_, warmByDisk, err := ServiceThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmByDisk[atlas][0]
	if warm.HitRate <= 0 || warm.HitRate > 1 {
		t.Fatalf("hot-region workload should hit the cache: %+v", warm)
	}
	if warm.Totals.IssuedRequests >= res.Totals.IssuedRequests {
		t.Fatalf("cache did not reduce issued requests: %d vs %d",
			warm.Totals.IssuedRequests, res.Totals.IssuedRequests)
	}

	bad := cfg
	bad.Clients = -1
	if _, _, err := ServiceThroughput(bad); err == nil {
		t.Fatal("negative clients accepted")
	}
	bad = cfg
	bad.WriteFraction = 1
	if _, _, err := ServiceThroughput(bad); err == nil {
		t.Fatal("write fraction 1 accepted")
	}
}

// TestServiceThroughputWithWrites mixes update bursts into the cached
// workload: the writes must reach the service as write ops, invalidate
// hot cached extents, and drag the hit rate below the read-only run's.
func TestServiceThroughputWithWrites(t *testing.T) {
	cfg := fastCfg()
	cfg.Clients = 4
	cfg.Queries = 8
	cfg.ChunkCells = 512
	cfg.CacheBlocks = 1 << 22

	_, readOnly, err := ServiceThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ro := readOnly[atlas][0]

	cfg.WriteFraction = 0.3
	tb, mixedByDisk, err := ServiceThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := mixedByDisk[atlas][0]
	if mixed.Totals.WriteOps == 0 || mixed.BlocksWritten == 0 {
		t.Fatalf("write fraction 0.3 produced no write ops: %+v", mixed)
	}
	if mixed.Totals.InvalidatedBlocks == 0 {
		t.Fatalf("hot-region writes invalidated nothing: %+v", mixed)
	}
	if mixed.HitRate >= ro.HitRate {
		t.Fatalf("hit rate did not fall under writes: %.3f (mixed) vs %.3f (read-only)",
			mixed.HitRate, ro.HitRate)
	}
	var writes, attrWrites int64
	for _, st := range mixed.PerSession {
		writes += st.Writes
	}
	for _, tot := range mixed.PerShard {
		attrWrites += tot.Attributed.Writes
	}
	if writes != attrWrites {
		t.Fatalf("session writes %d != attributed %d", writes, attrWrites)
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

	tb, byDisk, err := ServiceThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := byDisk[atlas]
	if len(runs) != 3 {
		t.Fatalf("want rungs at 1/2/4 shards, got %d runs", len(runs))
	}
	for i, want := range []int{1, 2, 4} {
		r := runs[i]
		if r.Shards != want {
			t.Fatalf("rung %d at %d shards, want %d", i, r.Shards, want)
		}
		if len(r.PerShard) != want {
			t.Fatalf("rung %d has %d shard totals, want %d", i, len(r.PerShard), want)
		}
		if r.Queries != cfg.Clients*cfg.Queries || r.QueriesPerSec <= 0 {
			t.Fatalf("rung %d incomplete: %+v", i, r)
		}
		var cells, attr int64
		for _, st := range r.PerSession {
			cells += st.Cells
		}
		for _, tot := range r.PerShard {
			attr += tot.Attributed.Cells
		}
		if cells != attr {
			t.Fatalf("rung %d: session cells %d != attributed %d", i, cells, attr)
		}
		if want > 1 {
			served, wrote := 0, 0
			for _, tot := range r.PerShard {
				if tot.Batches > 0 {
					served++
				}
				if tot.WriteOps > 0 {
					wrote++
				}
			}
			if served < 2 {
				t.Fatalf("rung %d: only %d shards served work", i, served)
			}
			// Write bursts are laid out per shard slab, so the write
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
