package shard

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/query"
)

// TestScatterGatherCancel cancels a multi-shard box before it starts
// and mid-flight and checks the cancellation contract: the first
// failure (here ctx's own) cancels every sibling's remaining work
// promptly, the partial Stats merge deterministically in part order,
// nothing is attributed for unissued chunks (session totals still equal
// the per-shard attributed sums), and no goroutine outlives the query.
func TestScatterGatherCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dims := []int{40, 12, 8}
	// 32-cell chunks cut each shard's part of the full box into eight,
	// more than the mid-flight leg below needs (MaxInflight + 1).
	g, closeAll := testGroupExec(t, mapping.MultiMap, dims, 4, engine.ServiceOptions{}, query.ExecOptions{ChunkCells: 32})
	defer closeAll()
	ss := g.Begin(engine.SessionOptions{MaxInflight: 2})

	// Warm run so the cancel run has served work behind it on every
	// shard (making the attribution check meaningful).
	if _, err := ss.Box(context.Background(), []int{0, 0, 0}, []int{40, 12, 8}, nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := ss.Box(ctx, []int{0, 0, 0}, []int{40, 12, 8}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Cells != 0 || st.TotalMs != 0 {
		t.Fatalf("pre-cancelled scatter still issued I/O: %+v", st)
	}
	if st.Cancelled == 0 {
		t.Fatal("cancelled parts not counted")
	}

	// Cancel mid-flight, by events: the first chunk to retire cancels the
	// query. The parts retire chunks only through the serialized hook, so
	// at that moment each has retired at most one of its chunks and
	// queued at most MaxInflight, and each stops at its next submission.
	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	st, err = ss.Box(mctx, []int{0, 0, 0}, []int{40, 12, 8}, func(Chunk) { mcancel() })
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel returned %v", err)
	}
	if st.Cancelled == 0 {
		t.Fatalf("mid-flight cancel dropped no chunk: %+v", st)
	}

	// Attribution: everything the session folded equals everything the
	// shards attributed — cancelled work charged nowhere.
	var attr engine.Stats
	for _, tot := range g.ServiceTotals() {
		attr.Accumulate(tot.Attributed)
	}
	sum := ss.Totals()
	if sum.Cells != attr.Cells || sum.Requests != attr.Requests || sum.Padding != attr.Padding {
		t.Fatalf("session totals %+v != per-shard attributed %+v", sum, attr)
	}
	if diff := math.Abs(sum.TotalMs - attr.TotalMs); diff > 1e-6*(1+sum.TotalMs) {
		t.Fatalf("attributed time drift %g", diff)
	}
	settleGoroutines(t, baseline)
}

// TestScatterGatherSiblingCancellation: when one part fails, the
// sibling shards' remaining chunks are cancelled promptly rather than
// running their plans to completion.
func TestScatterGatherSiblingCancellation(t *testing.T) {
	dims := []int{40, 12, 8}
	g, closeAll := testGroup(t, mapping.MultiMap, dims, 2, engine.ServiceOptions{})
	defer closeAll()
	// Closing shard 1's service makes any part routed there fail
	// immediately with ErrClosed — the "first error" of the scatter.
	g.Member(1).Svc.Close()
	ss := g.Begin(engine.SessionOptions{MaxInflight: 2})
	st, err := ss.Box(context.Background(), []int{0, 0, 0}, []int{40, 12, 8}, nil)
	if !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed (the real failure, not the Canceled it induced)", err)
	}
	// Shard 0's part was cancelled by the sibling failure; whatever it
	// already issued is in its totals, and the session folded the same
	// partial work (sum property under sibling cancellation).
	attr := g.Member(0).Svc.Totals().Attributed
	sum := ss.Totals()
	if sum.Cells != attr.Cells || sum.Requests != attr.Requests {
		t.Fatalf("partial fold mismatch: session %+v, shard0 attributed %+v", sum, attr)
	}
	if st.Cells != sum.Cells {
		t.Fatalf("returned partial stats %d cells, session folded %d", st.Cells, sum.Cells)
	}
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline after cancelled queries (planner goroutines exit with their
// queries, service loops once their queues drain).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}
