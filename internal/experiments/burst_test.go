package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestBurstTraffic runs the closed-loop burst benchmark small, with and
// without write-back, and checks the artifact: all three QoS classes
// carry traffic, the trajectory is ordered, group commit shows up in
// the write-back run, and the JSON dump round-trips.
func TestBurstTraffic(t *testing.T) {
	cfg := fastCfg()
	cfg.Clients = 4
	cfg.Queries = 6
	cfg.ChunkCells = 512
	cfg.CacheBlocks = 1 << 22
	cfg.WriteFraction = 0.3

	tb, plain, err := BurstTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBurst(plain); err != nil {
		t.Fatalf("write-through artifact invalid: %v", err)
	}
	if plain.WriteBack || plain.FlushBatches != 0 || plain.Coalesced != 0 {
		t.Fatalf("write-back evidence in a write-through run: %+v", plain)
	}
	if !strings.Contains(tb.String(), "p999 ms") {
		t.Fatalf("table missing trajectory columns:\n%s", tb)
	}

	cfg.WriteBack = true
	_, wb, err := BurstTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBurst(wb); err != nil {
		t.Fatalf("write-back artifact invalid: %v", err)
	}
	if !wb.WriteBack || wb.Coalesced == 0 || wb.FlushBatches == 0 {
		t.Fatalf("write-back run shows no group commit: %+v", wb)
	}

	// mmbench -json is a plain dump of the struct: it must survive the
	// round trip with its invariants intact.
	data, err := json.Marshal(wb)
	if err != nil {
		t.Fatal(err)
	}
	var back BurstResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBurst(&back); err != nil {
		t.Fatalf("round-trip rejected: %v", err)
	}
	if back.Coalesced != wb.Coalesced || len(back.Classes) != len(wb.Classes) {
		t.Fatalf("round-trip drifted: %+v vs %+v", back, wb)
	}

	// QoS on: the artifact records the quantum and the registered 1:4
	// interactive:bulk weights, and the table says so.
	cfg.FairQuantum = 4096
	tq, qos, err := BurstTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBurst(qos); err != nil {
		t.Fatalf("QoS artifact invalid: %v", err)
	}
	if qos.FairQuantum != 4096 {
		t.Fatalf("fair quantum not recorded: %+v", qos)
	}
	wantWeight := map[string]int{"interactive": 1, "bulk": 4, "writer": 1}
	for _, bc := range qos.Classes {
		if bc.Weight != wantWeight[bc.Class] {
			t.Fatalf("class %q weight %d, want %d", bc.Class, bc.Weight, wantWeight[bc.Class])
		}
		if bc.Ops < burstP999MinOps && bc.P999Ms != nil {
			t.Fatalf("class %q reports p999 on %d ops", bc.Class, bc.Ops)
		}
	}
	if !strings.Contains(tq.Title, "QoS quantum 4096") {
		t.Fatalf("table title missing QoS mode: %s", tq.Title)
	}
	if !strings.Contains(tb.Title, "QoS off") {
		t.Fatalf("QoS-off table title missing mode: %s", tb.Title)
	}

	// Host-efficiency fields are recorded on every run.
	if qos.GOMAXPROCS < 1 || qos.AllocsPerOp <= 0 {
		t.Fatalf("host fields wrong: %+v", qos)
	}
}

// TestValidateBurstRejects exercises ValidateBurst's rejections: a
// wrong schema tag, a missing or duplicated class, a class without
// traffic, an out-of-order trajectory, and out-of-range counters.
func TestValidateBurstRejects(t *testing.T) {
	p999 := 3.0
	good := func() *BurstResult {
		return &BurstResult{
			Schema: BurstSchema, Disk: "d", Scale: 1, Shards: 1,
			FairQuantum: 4096, GOMAXPROCS: 4, WallSeconds: 0.5, AllocsPerOp: 812.5,
			Classes: []BurstClass{
				{Class: "interactive", Weight: 1, Clients: 2, Ops: 12, P50Ms: 1, P99Ms: 2, P999Ms: &p999, MeanSimMs: 4},
				{Class: "bulk", Weight: 4, Clients: 1, Ops: 6, P50Ms: 1, P99Ms: 1, DeferredOps: 3},
				{Class: "writer", Weight: 1, Clients: 1, Ops: 6},
			},
		}
	}
	if err := ValidateBurst(good()); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	for name, mangle := range map[string]func(*BurstResult){
		"unknown schema":         func(r *BurstResult) { r.Schema = "mmbench-burst/v9" },
		"missing disk":           func(r *BurstResult) { r.Disk = "" },
		"zero wall_seconds":      func(r *BurstResult) { r.WallSeconds = 0 },
		"negative fair_quantum":  func(r *BurstResult) { r.FairQuantum = -1 },
		"negative allocs_per_op": func(r *BurstResult) { r.AllocsPerOp = -1 },
		"zero gomaxprocs":        func(r *BurstResult) { r.GOMAXPROCS = 0 },
		"missing class":          func(r *BurstResult) { r.Classes = r.Classes[:2] },
		"duplicate class":        func(r *BurstResult) { r.Classes[2].Class = "bulk" },
		"unknown class":          func(r *BurstResult) { r.Classes[2].Class = "ops" },
		"no traffic":             func(r *BurstResult) { r.Classes[0].Ops = 0 },
		"p50 above p99":          func(r *BurstResult) { r.Classes[0].P50Ms = 9 },
		"p999 below p99":         func(r *BurstResult) { low := 0.5; r.Classes[0].P999Ms = &low },
		"zero weight":            func(r *BurstResult) { r.Classes[1].Weight = 0 },
		"negative mean_sim_ms":   func(r *BurstResult) { r.Classes[0].MeanSimMs = -1 },
		"negative deferred_ops":  func(r *BurstResult) { r.Classes[1].DeferredOps = -1 },
	} {
		r := good()
		mangle(r)
		if err := ValidateBurst(r); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
