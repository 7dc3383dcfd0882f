package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// submitTogether queues raw ops as ONE admission batch: they are put on
// the queue under the lock before a loop exists, so the loop's first
// pass sees all of them whatever the host's timing.
func submitTogether(svc *Service, ops []*serviceOp) {
	now := time.Now()
	for _, op := range ops {
		op.enqueued = now
	}
	svc.mu.Lock()
	svc.queue = append(svc.queue, ops...)
	if !svc.running {
		svc.running = true
		go svc.loop()
	}
	svc.mu.Unlock()
}

// bitIdenticalTotals is what TestServiceTotalsBitIdentical printed at
// the commit before the attribution folds were written once (%+v prints
// a float64 in its shortest round-tripping form).
var bitIdenticalTotals = []string{
	"{Batches:13 MergedBatches:1 MaxBatchChunks:3 IssuedRequests:71 WriteOps:6 InvalidatedBlocks:4 FlushBatches:0 CoalescedWrites:0 DirtyBlocks:0 Cancelled:1 DeadlineExceeded:0 Attributed:{Cells:430 Padding:15 Requests:71 TotalMs:229.50000000000014 ElapsedMs:229.50000000000003 CommandMs:14.199999999999982 SeekMs:58.733893419027694 RotateMs:111.7161065809725 TransferMs:44.849999999999994 CacheHits:106 CacheMisses:62 Writes:133 InvalidatedBlocks:4 CoalescedWrites:0 FlushBatches:0 Cancelled:0 DeadlineExceeded:0 CowFaultBlocks:120 Partial:false}}",
	"{Class:a Ops:13 UrgentOps:0 Deferred:0 Attributed:{Cells:223 Padding:8 Requests:59 TotalMs:194.70000000000007 ElapsedMs:213.45000000000002 CommandMs:11.79999999999999 SeekMs:50.03389341902769 RotateMs:93.26610658097243 TransferMs:39.6 CacheHits:37 CacheMisses:51 Writes:132 InvalidatedBlocks:3 CoalescedWrites:0 FlushBatches:0 Cancelled:0 DeadlineExceeded:0 CowFaultBlocks:120 Partial:false}}",
	"{Class:b Ops:8 UrgentOps:0 Deferred:0 Attributed:{Cells:207 Padding:7 Requests:12 TotalMs:34.80000000000006 ElapsedMs:72.60000000000001 CommandMs:2.4 SeekMs:8.7 RotateMs:18.450000000000056 TransferMs:5.250000000000001 CacheHits:69 CacheMisses:11 Writes:1 InvalidatedBlocks:1 CoalescedWrites:0 FlushBatches:0 Cancelled:0 DeadlineExceeded:0 CowFaultBlocks:0 Partial:false}}",
	"{Batches:2 MergedBatches:0 MaxBatchChunks:1 IssuedRequests:30 WriteOps:5 InvalidatedBlocks:2 FlushBatches:2 CoalescedWrites:1 DirtyBlocks:0 Cancelled:1 DeadlineExceeded:0 Attributed:{Cells:56 Padding:1 Requests:30 TotalMs:117.00000000000037 ElapsedMs:116.99999999999997 CommandMs:6.000000000000003 SeekMs:26.500891862868635 RotateMs:55.699108137131745 TransferMs:28.8 CacheHits:1 CacheMisses:23 Writes:139 InvalidatedBlocks:2 CoalescedWrites:1 FlushBatches:3 Cancelled:0 DeadlineExceeded:0 CowFaultBlocks:120 Partial:false}}",
	"{Class:a Ops:5 UrgentOps:0 Deferred:0 Attributed:{Cells:56 Padding:1 Requests:26 TotalMs:88.95000000000022 ElapsedMs:92.09999999999994 CommandMs:5.200000000000002 SeekMs:22.800891862868635 RotateMs:45.349108137131594 TransferMs:15.6 CacheHits:1 CacheMisses:23 Writes:51 InvalidatedBlocks:1 CoalescedWrites:1 FlushBatches:1 Cancelled:0 DeadlineExceeded:0 CowFaultBlocks:40 Partial:false}}",
	"{Class:b Ops:2 UrgentOps:0 Deferred:0 Attributed:{Cells:0 Padding:0 Requests:4 TotalMs:28.05000000000015 ElapsedMs:35.85000000000002 CommandMs:0.8 SeekMs:3.7 RotateMs:10.350000000000154 TransferMs:13.2 CacheHits:0 CacheMisses:0 Writes:88 InvalidatedBlocks:1 CoalescedWrites:0 FlushBatches:2 Cancelled:0 DeadlineExceeded:0 CowFaultBlocks:80 Partial:false}}",
}

// TestServiceTotalsBitIdentical replays one seeded, single-goroutine op
// list — reads, cached re-reads, a merged two-class batch, write-through
// writes with a COW fault, a cancelled write, then write-back absorbs
// (one coalescing, one faulting) and a flush — and compares Totals()
// and ClassTotals() with the values the hand-mirrored folds produced.
// Every integer field is ==. The floats (the *Ms fields) are within
// 1e-12 relative: the recorded rows added each completion's cost into
// Attributed one by one, and the loop now adds each op's own sum — the
// same addends, associated per op.
func TestServiceTotalsBitIdentical(t *testing.T) {
	lv, cleanup := cowVolume(t)
	defer cleanup()
	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()
	var got []string
	record := func(svc *Service) {
		got = append(got, fmt.Sprintf("%+v", svc.Totals()))
		for _, ct := range svc.ClassTotals() {
			got = append(got, fmt.Sprintf("%+v", ct))
		}
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()

	// Phase 1: write-through, cache on.
	svc := NewService(lv, ServiceOptions{CacheBlocks: 512})
	a := svc.NewSession(SessionOptions{Class: "a"})
	b := svc.NewSession(SessionOptions{Class: "b"})
	chunks := randomChunks(rng, lv, 3, 12)
	for _, sess := range []*Session{a, b, a} { // b and the second a re-read cached extents
		if _, err := sess.RunPlan(ctx, chunkPlan(chunks), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	merged := randomChunks(rng, lv, 3, 8)
	ops := make([]*serviceOp, len(merged))
	for i, c := range merged {
		ops[i] = &serviceOp{kind: opChunk, chunk: c, policy: c.Policy,
			class: []string{"a", "b", "a"}[i], reply: make(chan opResult, 1)}
	}
	submitTogether(svc, ops)
	for _, op := range ops {
		if r := <-op.reply; r.err != nil {
			t.Fatal(r.err)
		}
	}
	for i, w := range [][]lvm.Request{
		{{VLBN: 10, Count: 2}},                         // first write to a frozen track: COW fault
		{{VLBN: 11, Count: 3}},                         // same track, private now
		{{VLBN: chunks[0].Reqs[0].VLBN, Count: 1}},     // invalidates a cached extent
		{{VLBN: 300, Count: 4}, {VLBN: 420, Count: 2}}, // two extents, two more faults
		{{VLBN: lv.TotalBlocks() + 5, Count: 1}},       // out of range: fails after invalidation
		{{VLBN: chunks[1].Reqs[0].VLBN, Count: 2}},     // cancelled below: invalidates, never served
		{{VLBN: chunks[2].Reqs[0].VLBN + 1, Count: 1}}, // class b
	} {
		sess, wctx := a, ctx
		switch i {
		case 5:
			wctx = dead
		case 6:
			sess = b
		}
		_, err := sess.Write(wctx, w, disk.SchedSPTF)
		if (err != nil) != (i == 4 || i == 5) {
			t.Fatalf("write %d: err = %v", i, err)
		}
	}
	if _, err := b.RunPlan(ctx, chunkPlan(chunks), Options{}); err != nil { // misses what the writes invalidated
		t.Fatal(err)
	}
	svc.Close()
	record(svc)

	// Phase 2: write-back on the same volume, flushed only by hand.
	svc = wbService(t, lv, 512)
	a = svc.NewSession(SessionOptions{Class: "a"})
	b = svc.NewSession(SessionOptions{Class: "b"})
	if _, err := a.RunPlan(ctx, chunkPlan(chunks[:2]), Options{}); err != nil {
		t.Fatal(err)
	}
	for i, w := range [][]lvm.Request{
		{{VLBN: 600, Count: 4}},                    // absorbed, faults its frozen track
		{{VLBN: 602, Count: 6}},                    // coalesces with the first
		{{VLBN: 700, Count: 3}},                    // class b, own extent
		{{VLBN: chunks[0].Reqs[1].VLBN, Count: 1}}, // invalidates at absorb time
		{{VLBN: 603, Count: 2}},                    // cancelled: invalidation only
	} {
		sess, wctx := a, ctx
		switch i {
		case 2:
			sess = b
		case 4:
			wctx = dead
		}
		if _, err := sess.Write(wctx, w, disk.SchedSPTF); (err != nil) != (i == 4) {
			t.Fatalf("write-back write %d: err = %v", i, err)
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(ctx, []lvm.Request{{VLBN: 800, Count: 5}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	svc.Close() // the fifth flush trigger commits b's last write
	record(svc)

	if len(got) != len(bitIdenticalTotals) {
		t.Fatalf("recorded %d totals, reference has %d", len(got), len(bitIdenticalTotals))
	}
	for i := range got {
		if !sameTotals(got[i], bitIdenticalTotals[i]) {
			t.Errorf("totals %d differ:\n got %s\nwant %s", i, got[i], bitIdenticalTotals[i])
		}
	}
}

// sameTotals compares two %+v renderings field by field: a field named
// *Ms is a float and may differ by 1e-12 relative, everything else —
// names, structure, integers, flags — must be equal as printed.
func sameTotals(got, want string) bool {
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i] == w[i] {
			continue
		}
		gn, gv, _ := strings.Cut(g[i], ":")
		wn, wv, _ := strings.Cut(w[i], ":")
		gf, gerr := strconv.ParseFloat(strings.TrimRight(gv, "}"), 64)
		wf, werr := strconv.ParseFloat(strings.TrimRight(wv, "}"), 64)
		if gn != wn || !strings.HasSuffix(gn, "Ms") || gerr != nil || werr != nil ||
			math.Abs(gf-wf) > 1e-12*math.Abs(wf) {
			return false
		}
	}
	return true
}

// TestSessionTotalsEqualAttributed: the loop prices an op once and both
// sides Accumulate that one value, so for a lone session of
// single-chunk ops — reads, cached re-reads, write-through writes with a
// COW fault, a failed write, a cancelled write — the session's lifetime
// totals == ServiceTotals.Attributed, exactly, floats included. The
// documented exceptions stay out of the comparison: ElapsedMs, and the
// drop counters, which Attributed never carries — the service counts
// drops beside it.
func TestSessionTotalsEqualAttributed(t *testing.T) {
	lv, cleanup := cowVolume(t)
	defer cleanup()
	svc := NewService(lv, ServiceOptions{CacheBlocks: 512})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	ctx := context.Background()
	dead, cancel := context.WithCancel(ctx)
	cancel()

	chunks := randomChunks(rand.New(rand.NewSource(5)), lv, 4, 12)
	readAll := func() {
		t.Helper()
		for _, c := range chunks {
			if _, err := sess.RunPlan(ctx, chunkPlan([]Chunk{c}), Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll()
	readAll() // served from the cache
	for i, w := range [][]lvm.Request{
		{{VLBN: 10, Count: 2}},                         // first write to a frozen track: COW fault
		{{VLBN: 300, Count: 4}, {VLBN: 420, Count: 2}}, // two extents, two more faults
		{{VLBN: chunks[0].Reqs[0].VLBN, Count: 1}},     // invalidates a cached extent
		{{VLBN: lv.TotalBlocks() + 5, Count: 1}},       // out of range: fails
		{{VLBN: chunks[1].Reqs[0].VLBN, Count: 2}},     // cancelled: invalidates, never served
	} {
		wctx := ctx
		if i == 4 {
			wctx = dead
		}
		if _, err := sess.Write(wctx, w, disk.SchedSPTF); (err != nil) != (i >= 3) {
			t.Fatalf("write %d: err = %v", i, err)
		}
	}
	readAll() // misses what the writes invalidated

	got, tot := sess.Totals(), svc.Totals()
	if got.Cancelled != 1 || got.Cancelled != tot.Cancelled || got.DeadlineExceeded != tot.DeadlineExceeded {
		t.Fatalf("drop counters: session %d/%d, service %d/%d, want one cancelled write on both",
			got.Cancelled, got.DeadlineExceeded, tot.Cancelled, tot.DeadlineExceeded)
	}
	if got.CowFaultBlocks == 0 || got.CacheHits == 0 || got.InvalidatedBlocks == 0 || got.Requests < 2*len(chunks) {
		t.Fatalf("op list did not exercise every path: %+v", got)
	}
	want := tot.Attributed
	got.ElapsedMs, want.ElapsedMs = 0, 0
	got.Cancelled = 0
	if got != want {
		t.Fatalf("session totals != Attributed:\n got %+v\nwant %+v", got, want)
	}
}

// fillDistinct sets every numeric field under v (nested structs
// included) to its own non-zero value and every bool to true; strings —
// ClassTotals.Class, a key, not a counter — are left alone.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	case reflect.Bool:
		v.SetBool(true)
	}
}

// checkFolded reports every field of sum that does not hold what two
// Accumulate calls of src into a zero value must leave there: twice
// src's value for a counter, src's value for a high-water mark, true
// for an OR-ed flag.
func checkFolded(t *testing.T, path string, sum, src reflect.Value) {
	switch src.Kind() {
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			checkFolded(t, path+"."+src.Type().Field(i).Name, sum.Field(i), src.Field(i))
		}
	case reflect.Int, reflect.Int64:
		want := 2 * src.Int()
		if path == "ServiceTotals.MaxBatchChunks" {
			want = src.Int()
		}
		if sum.Int() != want {
			t.Errorf("%s = %d after two Accumulates of %d, want %d — is the field folded?", path, sum.Int(), src.Int(), want)
		}
	case reflect.Float64:
		if sum.Float() != 2*src.Float() {
			t.Errorf("%s = %v after two Accumulates of %v — is the field folded?", path, sum.Float(), src.Float())
		}
	case reflect.Bool:
		if !sum.Bool() {
			t.Errorf("%s not OR-ed by Accumulate", path)
		}
	}
}

// TestAccumulateFoldsEveryField: each totals type has one Accumulate,
// and it folds every numeric field the type has — so a counter added
// without its fold fails here, by name, instead of in an attribution
// gate three layers up.
func TestAccumulateFoldsEveryField(t *testing.T) {
	for _, sum := range []any{&Stats{}, &ServiceTotals{}, &ClassTotals{}} {
		typ := reflect.TypeOf(sum).Elem()
		src := reflect.New(typ).Elem()
		var next int64
		fillDistinct(src, &next)
		acc := reflect.ValueOf(sum).MethodByName("Accumulate")
		acc.Call([]reflect.Value{src})
		acc.Call([]reflect.Value{src})
		checkFolded(t, typ.Name(), reflect.ValueOf(sum).Elem(), src)
	}
}
