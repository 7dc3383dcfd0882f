package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

// wbGroup builds a multi-shard group whose services run write-back with
// triggers pushed out of the way, so only session-level Flush/Close
// commits.
func wbGroup(t testing.TB, shards int) (*Group, func()) {
	t.Helper()
	svcs := make([]*engine.Service, shards)
	for i := range svcs {
		v, err := lvm.New(16, disk.MediumTestDisk())
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = engine.NewService(v, engine.ServiceOptions{
			WriteBack: engine.WriteBackOptions{
				Enabled:         true,
				WatermarkBlocks: 1 << 40,
				FlushInterval:   time.Hour,
			},
		})
	}
	g, err := Build(svcs, mapping.MultiMap, []int{40, 12, 8},
		mapping.Options{DiskIdx: 0}, query.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, func() {
		for _, svc := range svcs {
			svc.Close()
		}
	}
}

// TestShardSessionFlushOnClose: writes buffered on several shards all
// commit when the scatter-gather session closes — per-shard flush, no
// shard left holding dirty data, attribution-sum intact group-wide.
func TestShardSessionFlushOnClose(t *testing.T) {
	const shards = 3
	g, closeAll := wbGroup(t, shards)
	defer closeAll()
	ss := g.Begin(engine.SessionOptions{})

	for i := 0; i < shards; i++ {
		st, err := ss.Member(i).Write(context.Background(),
			[]lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF)
		if err != nil {
			t.Fatalf("shard %d write: %v", i, err)
		}
		if st.TotalMs != 0 || st.Writes != 8 {
			t.Fatalf("shard %d write not absorbed: %+v", i, st)
		}
	}
	for i := 0; i < shards; i++ {
		if tot := g.Member(i).Svc.Totals(); tot.DirtyBlocks != 8 {
			t.Fatalf("shard %d dirty=%d before close, want 8", i, tot.DirtyBlocks)
		}
	}
	if err := ss.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sumAttr engine.Stats
	for i := 0; i < shards; i++ {
		tot := g.Member(i).Svc.Totals()
		if tot.DirtyBlocks != 0 || tot.FlushBatches != 1 {
			t.Fatalf("shard %d not flushed exactly once on session close: %+v", i, tot)
		}
		sumAttr.Accumulate(tot.Attributed)
	}
	lt := ss.Totals()
	if lt.TotalMs <= 0 || lt.FlushBatches != shards || lt.Writes != 8*shards {
		t.Fatalf("session totals missing flush credits: %+v", lt)
	}
	lt.ElapsedMs = sumAttr.ElapsedMs
	if lt != sumAttr {
		t.Fatalf("attribution sum broken after per-shard flush: %+v vs %+v", lt, sumAttr)
	}
}

// TestShardSessionClosedErrs: every path of a scatter-gather session on
// closed services — member writes, member flushes, the session-level
// Flush/Close, and queries — fails with engine.ErrClosed rather than
// hanging or panicking on the retired loops.
func TestShardSessionClosedErrs(t *testing.T) {
	g, closeAll := wbGroup(t, 2)
	ss := g.Begin(engine.SessionOptions{})
	closeAll()

	for i := 0; i < g.NumShards(); i++ {
		if _, err := ss.Member(i).Write(context.Background(),
			[]lvm.Request{{VLBN: 10, Count: 2}}, disk.SchedSPTF); !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("shard %d Write on closed service: %v, want ErrClosed", i, err)
		}
		if err := ss.Member(i).Flush(context.Background()); !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("shard %d Flush on closed service: %v, want ErrClosed", i, err)
		}
	}
	if err := ss.Flush(context.Background()); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("session Flush on closed services: %v, want ErrClosed", err)
	}
	if err := ss.Close(context.Background()); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("session Close on closed services: %v, want ErrClosed", err)
	}
	if _, err := ss.Box(context.Background(), []int{0, 0, 0}, []int{40, 1, 1}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Box on closed services: %v, want ErrClosed", err)
	}
}
