package experiments

import (
	"strings"
	"testing"
)

// checkBurst asserts a burst result's invariants: all three QoS classes
// present once with traffic and a registered weight, a sane latency
// trajectory (0 ≤ p50 ≤ p99 ≤ p999 where reported) per class, and the
// host-efficiency fields recorded.
func checkBurst(t *testing.T, res *BurstResult) {
	t.Helper()
	if res.WallSeconds <= 0 || res.AllocsPerOp <= 0 || res.GOMAXPROCS < 1 {
		t.Errorf("host fields wrong: %+v", res)
	}
	want := []string{"interactive", "bulk", "writer"}
	if len(res.Classes) != len(want) {
		t.Fatalf("%d classes, want %v", len(res.Classes), want)
	}
	for i, bc := range res.Classes {
		if bc.Class != want[i] {
			t.Errorf("classes[%d] is %q, want %q", i, bc.Class, want[i])
		}
		if bc.Clients < 1 || bc.Ops < 1 || bc.Weight < 1 {
			t.Errorf("class %q has no traffic or weight: %+v", bc.Class, bc)
		}
		if bc.P50Ms < 0 || bc.P50Ms > bc.P99Ms {
			t.Errorf("class %q latency out of order: p50=%v p99=%v", bc.Class, bc.P50Ms, bc.P99Ms)
		}
		if bc.Ops >= burstP999MinOps && bc.P99Ms > bc.P999Ms {
			t.Errorf("class %q latency out of order: p99=%v p999=%v", bc.Class, bc.P99Ms, bc.P999Ms)
		}
		if bc.Ops < burstP999MinOps && bc.P999Ms != 0 {
			t.Errorf("class %q reports p999 on %d ops", bc.Class, bc.Ops)
		}
		if bc.MeanSimMs < 0 || bc.DeferredOps < 0 {
			t.Errorf("class %q negative counters: %+v", bc.Class, bc)
		}
	}
}

// TestBurstTraffic runs the closed-loop burst benchmark small, with and
// without write-back and with QoS on, and checks each result: all three
// QoS classes carry traffic, the trajectory is ordered, group commit
// shows up in the write-back run only, and the QoS run carries the
// registered 1:4 interactive:bulk weights.
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
	checkBurst(t, plain)
	if plain.Totals.FlushBatches != 0 || plain.Totals.CoalescedWrites != 0 {
		t.Fatalf("write-back evidence in a write-through run: %+v", plain)
	}
	if !strings.Contains(tb.String(), "p999 ms") {
		t.Fatalf("table missing trajectory columns:\n%s", tb)
	}
	if !strings.Contains(tb.Title, "QoS off") {
		t.Fatalf("QoS-off table title missing mode: %s", tb.Title)
	}

	cfg.WriteBack = true
	_, wb, err := BurstTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBurst(t, wb)
	if wb.Totals.CoalescedWrites == 0 || wb.Totals.FlushBatches == 0 {
		t.Fatalf("write-back run shows no group commit: %+v", wb)
	}

	cfg.FairQuantum = 4096
	tq, qos, err := BurstTraffic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBurst(t, qos)
	wantWeight := map[string]int{"interactive": 1, "bulk": 4, "writer": 1}
	for _, bc := range qos.Classes {
		if bc.Weight != wantWeight[bc.Class] {
			t.Fatalf("class %q weight %d, want %d", bc.Class, bc.Weight, wantWeight[bc.Class])
		}
	}
	if !strings.Contains(tq.Title, "QoS quantum 4096") {
		t.Fatalf("table title missing QoS mode: %s", tq.Title)
	}
}
