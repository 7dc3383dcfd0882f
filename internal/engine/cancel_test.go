package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (loop goroutines exit once their queues drain; a query has
// no goroutine of its own).
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

// blockingPlan yields prepared chunks, blocking on gate between them so
// the test controls exactly when the next chunk becomes available.
type blockingPlan struct {
	chunks []Chunk
	gate   chan struct{}
	i      int
}

func (p *blockingPlan) Next() (Chunk, bool, error) {
	if p.i == len(p.chunks) {
		return Chunk{}, false, nil
	}
	if p.gate != nil {
		<-p.gate
	}
	p.i++
	return p.chunks[p.i-1], true, nil
}

// TestRunPlanCancelMidPipeline cancels a pipelined query between chunks
// and checks the partial-stats contract: the error is ctx's, the
// session's lifetime totals equal exactly what the service attributed
// (nothing charged for unissued chunks), the Cancelled counters agree
// between session and service, and no goroutine outlives the query.
func TestRunPlanCancelMidPipeline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{})
	defer svc.Close()
	rng := rand.New(rand.NewSource(42))
	chunks := randomChunks(rng, v, 6, 20)

	ctx, cancel := context.WithCancel(context.Background())
	gate := make(chan struct{})
	p := &blockingPlan{chunks: chunks, gate: gate}
	sess := svc.NewSession(SessionOptions{MaxInflight: 2})
	done := make(chan struct{})
	var st Stats
	var err error
	go func() {
		defer close(done)
		st, err = sess.RunPlan(ctx, p, Options{})
	}()
	gate <- struct{}{} // chunk 1 planned
	// Wait until the service actually served chunk 1 — only then is the
	// "partial stats" claim meaningful in every interleaving.
	for start := time.Now(); svc.Totals().Attributed.Cells == 0; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("chunk 1 never served")
		}
		time.Sleep(time.Millisecond)
	}
	gate <- struct{}{} // chunk 2 planned
	cancel()
	close(gate) // release the plan; the submit loop must stop on ctx
	<-done

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Cells == 0 {
		t.Fatal("no partial stats returned for the chunks that were issued")
	}
	if st.Cancelled == 0 {
		t.Fatal("cancelled chunks not counted in Stats.Cancelled")
	}
	// Nothing may be attributed for unissued chunks: the session's
	// lifetime totals must equal the service's attributed totals.
	tot := svc.Totals()
	lt := sess.Totals()
	if lt.Cells != tot.Attributed.Cells || lt.Requests != tot.Attributed.Requests ||
		lt.Padding != tot.Attributed.Padding {
		t.Fatalf("session totals %+v != attributed %+v after cancel", lt, tot.Attributed)
	}
	// Session-side counters = service drops + the pre-submit abort.
	if lt.Cancelled != tot.Cancelled+1 {
		t.Fatalf("session cancelled %d, service dropped %d (+1 pre-submit abort expected)",
			lt.Cancelled, tot.Cancelled)
	}
	settleGoroutines(t, baseline)
}

// TestRunPlanLooksAheadOneChunk pins how far RunPlan runs ahead of the
// disks: it plans on the calling goroutine — so a Plan needs no locking
// and is never touched after RunPlan returns — and asks for chunk
// k+MaxInflight only when it is about to wait for chunk k. When chunk
// k retires the plan has therefore produced at most k+MaxInflight+1
// chunks, and once ctx is cancelled Next is not called again.
func TestRunPlanLooksAheadOneChunk(t *testing.T) {
	v := testVolume(t)
	chunks := randomChunks(rand.New(rand.NewSource(9)), v, 8, 10)
	for _, mi := range []int{1, 2} {
		svc := NewService(v, ServiceOptions{})
		sess := svc.NewSession(SessionOptions{MaxInflight: mi})
		produced, retired := 0, 0
		counting := planFunc(func() (Chunk, bool, error) {
			if produced == len(chunks) {
				return Chunk{}, false, nil
			}
			produced++
			return chunks[produced-1], true, nil
		})
		_, err := sess.RunPlan(context.Background(), counting, Options{OnChunk: func(Stats) {
			if produced > retired+mi+1 {
				t.Errorf("MaxInflight %d: %d chunks planned when chunk %d retired, want <= %d",
					mi, produced, retired, retired+mi+1)
			}
			retired++
		}})
		if err != nil || retired != len(chunks) {
			t.Fatalf("MaxInflight %d: retired %d of %d chunks, err %v", mi, retired, len(chunks), err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		produced, retired = 0, 0
		atCancel := -1
		_, err = sess.RunPlan(ctx, counting, Options{OnChunk: func(Stats) {
			if retired++; retired == 2 {
				cancel()
				atCancel = produced
			}
		}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("MaxInflight %d: err = %v, want context.Canceled", mi, err)
		}
		if atCancel < 0 || produced != atCancel {
			t.Fatalf("MaxInflight %d: plan produced %d chunks, had produced %d when ctx was cancelled", mi, produced, atCancel)
		}
		cancel()
		svc.Close()
	}
}

// TestRunPlanDeadlineExceeded runs a query under an already-expired
// deadline: it must not issue any I/O and must report DeadlineExceeded.
func TestRunPlanDeadlineExceeded(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{})
	defer svc.Close()
	rng := rand.New(rand.NewSource(7))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sess := svc.NewSession(SessionOptions{})
	st, err := sess.RunPlan(ctx, chunkPlan(randomChunks(rng, v, 3, 10)), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st.Cells != 0 || st.Requests != 0 || st.TotalMs != 0 {
		t.Fatalf("expired query still charged I/O: %+v", st)
	}
	if st.DeadlineExceeded == 0 {
		t.Fatal("DeadlineExceeded not counted")
	}
	if tot := svc.Totals(); tot.Attributed.Cells != 0 || tot.IssuedRequests != 0 {
		t.Fatalf("service attributed work for an expired query: %+v", tot)
	}
}

// TestCancelledWriteStillInvalidates: a write op whose context is dead
// at admission is dropped — no simulated I/O — but its invalidation
// still happens, because the submitter's cell state already mutated.
func TestCancelledWriteStillInvalidates(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{CacheBlocks: 1 << 16})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	reqs := []lvm.Request{{VLBN: 100, Count: 8}}

	// Prime the cache.
	if _, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}
	warm, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{})
	if err != nil || warm.CacheHits != 1 {
		t.Fatalf("cache not primed: %+v %v", warm, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wst, werr := sess.Write(ctx, reqs, disk.SchedSPTF)
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("write err = %v, want Canceled", werr)
	}
	if wst.Writes != 0 || wst.TotalMs != 0 {
		t.Fatalf("dropped write still charged I/O: %+v", wst)
	}
	if wst.Cancelled != 1 {
		t.Fatalf("dropped write not counted: %+v", wst)
	}
	if wst.InvalidatedBlocks != 8 {
		t.Fatalf("dropped write invalidated %d blocks, want 8", wst.InvalidatedBlocks)
	}
	tot := svc.Totals()
	if tot.Cancelled != 1 || tot.InvalidatedBlocks != 8 {
		t.Fatalf("service totals after dropped write: %+v", tot)
	}
	// The extent is gone: the next read pays disk I/O again.
	cold, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 || cold.TotalMs == 0 {
		t.Fatalf("read after dropped write replayed stale cache: %+v", cold)
	}
}

// TestDeadChunksDroppedAtAdmission: read chunks whose context is done
// by their admission pass are dropped there — no simulated I/O — and
// counted in the service totals, Cancelled or DeadlineExceeded by the
// context's error, while a live chunk of the same pass is served.
// submitTogether queues all three before a loop exists, so the drop
// happens at admission whatever the host's timing.
func TestDeadChunksDroppedAtAdmission(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{})
	defer svc.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	ctxs := []context.Context{cancelled, expired, context.Background()}
	chunks := randomChunks(rand.New(rand.NewSource(11)), v, len(ctxs), 10)
	ops := make([]*serviceOp, len(chunks))
	for i, c := range chunks {
		ops[i] = &serviceOp{kind: opChunk, ctx: ctxs[i], chunk: c, policy: c.Policy, reply: make(chan opResult, 1)}
	}
	submitTogether(svc, ops)
	res := make([]opResult, len(ops))
	for i, op := range ops {
		res[i] = <-op.reply
	}
	if !errors.Is(res[0].err, context.Canceled) || res[0].stats != (Stats{Cancelled: 1}) {
		t.Fatalf("cancelled chunk: %+v, %v; want only Cancelled 1 and context.Canceled", res[0].stats, res[0].err)
	}
	if !errors.Is(res[1].err, context.DeadlineExceeded) || res[1].stats != (Stats{DeadlineExceeded: 1}) {
		t.Fatalf("expired chunk: %+v, %v; want only DeadlineExceeded 1 and context.DeadlineExceeded", res[1].stats, res[1].err)
	}
	if res[2].err != nil || res[2].stats.Requests == 0 {
		t.Fatalf("live chunk: %+v, %v; want it served", res[2].stats, res[2].err)
	}
	tot := svc.Totals()
	if tot.Cancelled != 1 || tot.DeadlineExceeded != 1 {
		t.Fatalf("service drops: cancelled %d, expired %d; want 1 and 1", tot.Cancelled, tot.DeadlineExceeded)
	}
	if tot.Attributed.Requests != res[2].stats.Requests || tot.Attributed.TotalMs != res[2].stats.TotalMs {
		t.Fatalf("attributed %+v, want only the live chunk's %+v", tot.Attributed, res[2].stats)
	}
}

// TestQoSGroups covers the admission classifier directly, as a
// FairQuantum-0 scheduler pass: aging off is one batch in submission
// order; aging on carves deadline-carrying and over-age ops into a
// front batch ordered by effective deadline.
func TestQoSGroups(t *testing.T) {
	now := time.Now()
	mk := func(deadline time.Time, age time.Duration) *serviceOp {
		return &serviceOp{kind: opChunk, deadline: deadline, enqueued: now.Add(-age)}
	}
	bulk1 := mk(time.Time{}, 0)
	bulk2 := mk(time.Time{}, 0)
	urgent := mk(now.Add(2*time.Millisecond), 0)
	urgentSoon := mk(now.Add(time.Millisecond), 0)
	aged := mk(time.Time{}, 50*time.Millisecond)

	ops := []*serviceOp{bulk1, urgent, bulk2, aged, urgentSoon}
	if g := passGroups(ops, nil, 0, 0, now); len(g) != 1 || len(g[0]) != 5 {
		t.Fatalf("aging off: got %d groups", len(g))
	}
	g := passGroups(ops, nil, 0, 10*time.Millisecond, now)
	if len(g) != 2 {
		t.Fatalf("aging on: got %d groups, want urgent+bulk", len(g))
	}
	// Front batch: both deadline ops (soonest first) and the aged op
	// (effective deadline enqueued+aging = now-40ms, the oldest of all).
	if len(g[0]) != 3 || g[0][0] != aged || g[0][1] != urgentSoon || g[0][2] != urgent {
		t.Fatalf("urgent batch wrong: %v", g[0])
	}
	if len(g[1]) != 2 || g[1][0] != bulk1 || g[1][1] != bulk2 {
		t.Fatalf("bulk batch reordered")
	}
}

// TestErrClosedSentinel: operations on a closed service fail fast with
// ErrClosed (errors.Is), never panicking or hanging on the retired
// loop.
func TestErrClosedSentinel(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{})
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.RunPlan(context.Background(),
		Static([]lvm.Request{{VLBN: 0, Count: 1}}, disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := sess.RunPlan(context.Background(),
		Static([]lvm.Request{{VLBN: 0, Count: 1}}, disk.SchedSPTF), Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunPlan after Close: err = %v, want ErrClosed", err)
	}
	if _, err := sess.Write(context.Background(),
		[]lvm.Request{{VLBN: 0, Count: 1}}, disk.SchedSPTF); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close: err = %v, want ErrClosed", err)
	}
	if err := svc.Reset(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reset after Close: err = %v, want ErrClosed", err)
	}
}
