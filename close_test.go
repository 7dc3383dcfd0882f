package multimap

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestUseAfterStoreClose is the regression test for the use-after-Close
// hazard: operations on a closed store — through the store itself or
// through sessions opened before the close — must fail cleanly with
// ErrClosed instead of panicking or hanging on a retired service loop.
func TestUseAfterStoreClose(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	s, err := Open(v, MultiMap, []int{30, 8, 5}, Updatable(UpdateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.Begin()
	if _, err := sess.Beam(context.Background(), 1, []int{5, 0, 3}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent

	ctx := context.Background()
	if _, err := sess.Beam(ctx, 1, []int{5, 0, 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session.Beam after Store.Close: %v, want ErrClosed", err)
	}
	if _, err := sess.RangeQuery(ctx, []int{0, 0, 0}, []int{2, 2, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session.RangeQuery after Store.Close: %v, want ErrClosed", err)
	}
	if _, err := sess.Insert(ctx, []int{1, 1, 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session.Insert after Store.Close: %v, want ErrClosed", err)
	}
	if _, err := sess.FetchCell(ctx, []int{1, 1, 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session.FetchCell after Store.Close: %v, want ErrClosed", err)
	}
	if _, err := s.Beam(ctx, 1, []int{5, 0, 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Store.Beam after Store.Close: %v, want ErrClosed", err)
	}
	if _, err := s.LoadCell(ctx, []int{1, 1, 1}, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("Store.LoadCell after Store.Close: %v, want ErrClosed", err)
	}

	// The caller's volume is untouched: a fresh store works.
	fresh, err := Open(v, MultiMap, []int{30, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := fresh.Beam(ctx, 1, []int{5, 0, 3}); err != nil || st.Cells != 8 {
		t.Fatalf("fresh store after old Store.Close: %+v %v", st, err)
	}
}

// TestUseAfterVolumeClose: closing the caller's own volume retires the
// service under live stores; their operations must also surface
// ErrClosed (through the engine layer), not a panic or hang.
func TestUseAfterVolumeClose(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(v, MultiMap, []int{30, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.Begin()
	v.Close()
	if _, err := sess.Beam(context.Background(), 1, []int{5, 0, 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session.Beam after Volume.Close: %v, want ErrClosed", err)
	}
	if _, err := s.RangeQuery(context.Background(), []int{0, 0, 0}, []int{2, 2, 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Store.RangeQuery after Volume.Close: %v, want ErrClosed", err)
	}
}

// The volume lifecycle is a two-state machine: open, then closed, with
// Volume.Close the one transition. Out of closed, Open is illegal and
// fails loudly with ErrClosed, and Reset is a documented no-op; neither
// may quietly start a second service on the same drives.

// TestOpenAfterVolumeClose walks the illegal transitions one at a time.
func TestOpenAfterVolumeClose(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{30, 8, 5}
	s, err := Open(v, MultiMap, dims)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Beam(ctx, 1, []int{5, 0, 3}); err != nil {
		t.Fatal(err)
	}
	v.Close()
	v.Close() // idempotent
	for _, opts := range [][]Option{nil, {WithShards(2)}, {WithCache(4096)}, {Updatable(UpdateOptions{})}} {
		if st, err := Open(v, MultiMap, dims, opts...); !errors.Is(err, ErrClosed) {
			t.Fatalf("Open on a closed volume with %d options: store %v, err %v; want ErrClosed", len(opts), st != nil, err)
		}
	}
	// Reset after Close leaves the service's books (and the drives) as
	// the last batch left them.
	before, drive := v.ServiceTotals(), v.svc.Volume().Disk(0)
	clock, served := drive.NowMs(), drive.Stats()
	if before.Batches == 0 || clock == 0 {
		t.Fatal("the beam before Close left no trace to compare against")
	}
	v.Reset()
	s.Reset()
	if got := v.ServiceTotals(); got != before {
		t.Fatalf("Reset after Close touched the service: %+v, was %+v", got, before)
	}
	if drive.NowMs() != clock || drive.Stats() != served {
		t.Fatal("Reset after Close touched the drives")
	}
	if _, err := s.Beam(ctx, 1, []int{5, 0, 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Store.Beam after Volume.Close: %v, want ErrClosed", err)
	}
}

// TestVolumeLifecycleRace races the legal and illegal transitions
// (run with -race): workers loop Open → Beam → Volume.Reset while
// another goroutine closes the volume. Every Open returns a working
// store or ErrClosed, every Open or query that starts after Close has
// returned fails with ErrClosed, nothing hangs, and no goroutine
// outlives the volume.
func TestVolumeLifecycleRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{30, 8, 5}
	const workers = 4
	var (
		closed atomic.Bool  // set once v.Close has returned
		beams  atomic.Int64 // beams served before the close
		wg     sync.WaitGroup
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				after := closed.Load()
				s, err := Open(v, MultiMap, dims, WithShards(1+i%2))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil || after {
					errs <- fmt.Errorf("worker %d: Open (started after Close: %v): %v; want a store, or ErrClosed after Close", w, after, err)
					return
				}
				// Dim0 = w < 15 keeps every beam on shard 0, the caller's
				// volume, even on the 2-shard stores.
				after = closed.Load()
				_, err = s.Beam(context.Background(), i%3, []int{w, i % 8, i % 5})
				switch {
				case err == nil && after:
					errs <- fmt.Errorf("worker %d: a beam started after Close succeeded", w)
					return
				case err == nil:
					beams.Add(1)
				case !errors.Is(err, ErrClosed):
					errs <- fmt.Errorf("worker %d: Beam: %v; want success or ErrClosed", w, err)
					return
				}
				v.Reset()
				s.Close()
			}
		}(w)
	}
	for beams.Load() < 2*workers && len(errs) == 0 {
		runtime.Gosched()
	}
	v.Close()
	closed.Store(true)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers hung after Volume.Close")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestErrNotUpdatable: update operations are capability-gated by the
// Updatable open option; queries and plain cell fetches still work.
func TestErrNotUpdatable(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	s, err := Open(v, MultiMap, []int{30, 8, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Updatable() {
		t.Fatal("store without Updatable reports updatable")
	}
	ctx := context.Background()
	if _, err := s.Insert(ctx, []int{1, 1, 1}); !errors.Is(err, ErrNotUpdatable) {
		t.Fatalf("Insert: %v, want ErrNotUpdatable", err)
	}
	if _, err := s.Delete(ctx, []int{1, 1, 1}); !errors.Is(err, ErrNotUpdatable) {
		t.Fatalf("Delete: %v, want ErrNotUpdatable", err)
	}
	if _, err := s.LoadCell(ctx, []int{1, 1, 1}, 4); !errors.Is(err, ErrNotUpdatable) {
		t.Fatalf("LoadCell: %v, want ErrNotUpdatable", err)
	}
	if _, err := s.Points([]int{1, 1, 1}); !errors.Is(err, ErrNotUpdatable) {
		t.Fatalf("Points: %v, want ErrNotUpdatable", err)
	}
	// FetchCell is a read: on a read-only store it fetches the home
	// extent.
	st, err := s.FetchCell(ctx, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 1 {
		t.Fatalf("FetchCell on read-only store fetched %d blocks, want 1", st.Cells)
	}

	u, err := Open(v, MultiMap, []int{30, 8, 5}, Updatable(UpdateOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !u.Updatable() {
		t.Fatal("Updatable store reports not updatable")
	}
	if _, err := u.Insert(ctx, []int{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDeadlinePartialStats: the public contract of a query that
// cannot finish in time — partial Stats, the context's error, and the
// DeadlineExceeded counter.
func TestStoreDeadlinePartialStats(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	s, err := Open(v, MultiMap, []int{40, 12, 8}, WithChunkCells(64))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	st, err := s.RangeQuery(ctx, []int{0, 0, 0}, []int{40, 12, 8})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st.Cells != 0 || st.TotalMs != 0 {
		t.Fatalf("expired query charged I/O: %+v", st)
	}
	if st.DeadlineExceeded == 0 {
		t.Fatal("DeadlineExceeded counter missing from partial stats")
	}
	// And with a live context the same query completes normally.
	st, err = s.RangeQuery(context.Background(), []int{0, 0, 0}, []int{40, 12, 8})
	if err != nil || st.Cells != 40*12*8 {
		t.Fatalf("full query after expired one: %+v %v", st, err)
	}
}
