package engine

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/mapping"
)

// drrOp builds a bare work op of one class with an exact block cost,
// for driving the scheduler directly.
func drrOp(class string, cost int64) *serviceOp {
	return &serviceOp{
		kind:  opChunk,
		class: class,
		chunk: Chunk{Reqs: []lvm.Request{{VLBN: 0, Count: int(cost)}}},
	}
}

// pushOps queues ops under their own classes, as a fair-share pass does.
func pushOps(d *drrSched, ops ...*serviceOp) {
	for _, op := range ops {
		d.pending[op.class] = append(d.pending[op.class], op)
		d.count++
	}
}

func groupClasses(groups [][]*serviceOp) []string {
	var names []string
	for _, g := range groups {
		names = append(names, g[0].class)
	}
	return names
}

// TestDRRDeficitCarry pins the deficit-round-robin core: credit that a
// pass could not spend carries to the next pass while the class stays
// backlogged, admission is FIFO within the class, and a class whose
// backlog drains forfeits its leftover credit (the classic DRR
// anti-hoarding rule).
func TestDRRDeficitCarry(t *testing.T) {
	classes := map[string]QoSClass{}
	d := newDRRSched()
	pushOps(d, drrOp("a", 8), drrOp("a", 8), drrOp("b", 4))

	// Pass 1, quantum 10: a affords one 8-cost op (deficit 2 carries),
	// b affords its whole 4-cost backlog and resets to 0 on drain.
	groups := d.grant(classes, 10)
	if got := groupClasses(groups); len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("pass 1 groups %v, want [b a] (cheapest group first)", got)
	}
	if len(groups[1]) != 1 || len(groups[0]) != 1 {
		t.Fatalf("pass 1 admitted %d+%d ops, want 1+1", len(groups[0]), len(groups[1]))
	}
	if d.deficit["a"] != 2 {
		t.Fatalf("a deficit %d after pass 1, want 2 carried", d.deficit["a"])
	}
	if d.deficit["b"] != 0 {
		t.Fatalf("b deficit %d after drain, want 0 forfeited", d.deficit["b"])
	}
	if d.count != 1 {
		t.Fatalf("backlog %d after pass 1, want 1", d.count)
	}

	// Pass 2: a's carried 2 + fresh 10 covers the second 8-cost op.
	groups = d.grant(classes, 10)
	if len(groups) != 1 || len(groups[0]) != 1 || groups[0][0].class != "a" {
		t.Fatalf("pass 2 groups %v", groupClasses(groups))
	}
	if d.count != 0 || d.deficit["a"] != 0 {
		t.Fatalf("drained backlog left count %d, a deficit %d", d.count, d.deficit["a"])
	}
	if d.grant(classes, 10) != nil {
		t.Fatal("grant on empty backlog returned groups")
	}
}

// TestDRRWeightedShare: weights scale the per-pass credit, so a
// weight-3 class admits three times the blocks of a weight-1 class in
// the same pass.
func TestDRRWeightedShare(t *testing.T) {
	classes := map[string]QoSClass{
		"light": {Name: "light", Weight: 1},
		"heavy": {Name: "heavy", Weight: 3},
	}
	d := newDRRSched()
	for i := 0; i < 4; i++ {
		pushOps(d, drrOp("light", 10), drrOp("heavy", 10))
	}
	groups := d.grant(classes, 10)
	admitted := map[string]int{}
	for _, g := range groups {
		admitted[g[0].class] = len(g)
	}
	if admitted["light"] != 1 || admitted["heavy"] != 3 {
		t.Fatalf("pass admitted %v, want light:1 heavy:3", admitted)
	}
}

// TestDRRAntiLivelock: an op costlier than its class's whole per-pass
// grant still goes — rounds repeat, accumulating credit, until one op
// is admitted, so a huge scan cannot wedge the scheduler.
func TestDRRAntiLivelock(t *testing.T) {
	d := newDRRSched()
	pushOps(d, drrOp("big", 1000))
	groups := d.grant(map[string]QoSClass{}, 10)
	if len(groups) != 1 || len(groups[0]) != 1 {
		t.Fatalf("expensive op not admitted: %v", groupClasses(groups))
	}
	if d.count != 0 {
		t.Fatalf("backlog count %d after admission", d.count)
	}
}

// TestDRRCheapestGroupFirst: within a pass the admitted groups are
// served cheapest first (ties on class name), so a light class's ops
// complete ahead of a heavy scan group instead of waiting it out.
func TestDRRCheapestGroupFirst(t *testing.T) {
	d := newDRRSched()
	pushOps(d,
		drrOp("aheavy", 90),
		drrOp("zlight", 2),
		drrOp("mid", 40),
	)
	groups := d.grant(map[string]QoSClass{}, 100)
	if got := groupClasses(groups); len(got) != 3 ||
		got[0] != "zlight" || got[1] != "mid" || got[2] != "aheavy" {
		t.Fatalf("group order %v, want [zlight mid aheavy]", got)
	}

	// Equal-cost groups fall back to class-name order — deterministic
	// whatever map iteration did.
	d2 := newDRRSched()
	pushOps(d2, drrOp("b", 5), drrOp("a", 5))
	groups = d2.grant(map[string]QoSClass{}, 100)
	if got := groupClasses(groups); got[0] != "a" || got[1] != "b" {
		t.Fatalf("tie order %v, want [a b]", got)
	}
}

// TestDRRDrainAndUrgentPromotion: drain flushes every backlog in class
// order zeroing deficits, and takeUrgent pulls deadline and
// urgent-class ops out of the weighted backlogs, leaving an op that is
// merely old where it is.
func TestDRRDrainAndUrgentPromotion(t *testing.T) {
	d := newDRRSched()
	pushOps(d, drrOp("b", 5), drrOp("a", 5), drrOp("b", 5))
	d.deficit["a"] = 3
	groups := d.drain()
	if got := groupClasses(groups); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("drain groups %v, want [a b]", got)
	}
	if len(groups[1]) != 2 {
		t.Fatalf("b drained %d ops, want 2 FIFO", len(groups[1]))
	}
	if d.count != 0 || d.deficit["a"] != 0 {
		t.Fatalf("drain left count %d, deficit %d", d.count, d.deficit["a"])
	}

	now := time.Now()
	classes := map[string]QoSClass{"rt": {Name: "rt", Urgent: true}}
	old := drrOp("slow", 5)
	old.enqueued = now.Add(-time.Hour)
	fresh := drrOp("slow", 5)
	fresh.enqueued = now
	dl := drrOp("slow", 5)
	dl.enqueued = now
	dl.deadline = now.Add(time.Millisecond)
	urgent := drrOp("rt", 5)
	urgent.enqueued = now
	pushOps(d, old, fresh, dl, urgent)
	got := d.takeUrgent(classes)
	if len(got) != 2 || got[0] != urgent || got[1] != dl {
		t.Fatalf("takeUrgent pulled %d ops, want 2 (urgent class, deadline)", len(got))
	}
	if d.count != 2 || !slices.Equal(d.pending["slow"], []*serviceOp{old, fresh}) {
		t.Fatalf("old and fresh ops not left in backlog (count %d)", d.count)
	}
}

// TestServiceFairShareDeferral: with a tiny quantum and several chunks
// in one admission pass, DRR defers the chunks the pass's credit cannot
// cover (the Deferred counter counts them), yet every chunk is still
// served. submitTogether puts the chunks on the queue before a loop
// exists, so the first pass holds all of them whatever the host's
// timing.
func TestServiceFairShareDeferral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{
		FairQuantum: 1,
		Classes:     []QoSClass{{Name: "bulk", Weight: 1}},
	})
	defer svc.Close()

	chunks := randomChunks(rng, v, 4, 30)
	ops := make([]*serviceOp, len(chunks))
	for i, c := range chunks {
		ops[i] = &serviceOp{kind: opChunk, chunk: c, class: "bulk", reply: make(chan opResult, 1)}
	}
	submitTogether(svc, ops)
	for i, op := range ops {
		if r := <-op.reply; r.err != nil {
			t.Fatalf("chunk %d: %v", i, r.err)
		}
	}

	cts := svc.ClassTotals()
	if len(cts) != 1 || cts[0].Class != "bulk" {
		t.Fatalf("ClassTotals = %+v, want one bulk entry", cts)
	}
	ct := cts[0]
	if ct.Ops != int64(len(chunks)) {
		t.Fatalf("bulk served %d ops, want %d", ct.Ops, len(chunks))
	}
	if ct.Deferred == 0 {
		t.Fatal("tiny quantum with a pass of several chunks never deferred — DRR not engaged")
	}
	if ct.UrgentOps != 0 {
		t.Fatalf("no deadline anywhere but %d urgent ops", ct.UrgentOps)
	}
}

// TestControlBarrierDrainsDeferred: ops the fair scheduler deferred
// were submitted before the Flush behind them, so the Flush barrier
// serves the DRR backlog first — writes deferred ahead of a Flush in
// the same pass are absorbed before it and committed by it. Closing
// the service with a backlog serves it out in one drain, and every
// op's reply still sums to the attributed totals.
func TestControlBarrierDrainsDeferred(t *testing.T) {
	opts := ServiceOptions{FairQuantum: 1, Classes: []QoSClass{{Name: "bulk", Weight: 1}}}
	newOps := func(chunks []Chunk) []*serviceOp {
		ops := make([]*serviceOp, len(chunks))
		for i, c := range chunks {
			ops[i] = &serviceOp{kind: opChunk, chunk: c, class: "bulk", reply: make(chan opResult, 1)}
		}
		return ops
	}
	countDeferred := func(ops []*serviceOp) int {
		n := 0
		for _, op := range ops {
			if op.deferred {
				n++
			}
		}
		return n
	}

	t.Run("flush", func(t *testing.T) {
		v := testVolume(t)
		wbOpts := opts
		// Neither the interval nor the watermark may flush during the
		// test: only the Flush op commits.
		wbOpts.WriteBack = WriteBackOptions{Enabled: true, WatermarkBlocks: 1 << 30, FlushInterval: time.Hour}
		svc := NewService(v, wbOpts)
		defer svc.Close()
		ops := newOps(randomChunks(rand.New(rand.NewSource(7)), v, 4, 30))
		for _, op := range ops {
			op.kind = opWrite
		}
		flush := &serviceOp{kind: opFlush, reply: make(chan opResult, 1)}
		submitTogether(svc, append(ops, flush))
		for i, op := range ops {
			if r := <-op.reply; r.err != nil {
				t.Fatalf("write %d: %v", i, r.err)
			}
		}
		if r := <-flush.reply; r.err != nil {
			t.Fatal(r.err)
		}
		if countDeferred(ops) == 0 {
			t.Fatal("no write was deferred: the barrier had no backlog to drain")
		}
		if tot := svc.Totals(); tot.DirtyBlocks != 0 || tot.FlushBatches == 0 {
			t.Fatalf("totals after the flush %+v: deferred writes were absorbed after the barrier", tot)
		}
	})

	t.Run("close", func(t *testing.T) {
		v := testVolume(t)
		svc := NewService(v, opts)
		ops := newOps(randomChunks(rand.New(rand.NewSource(8)), v, 4, 30))
		// Closed before the loop's first pass: once that pass has
		// deferred its backlog, the loop finds the queue empty and the
		// service closed, and drains the backlog at once.
		svc.mu.Lock()
		svc.closed = true
		svc.mu.Unlock()
		submitTogether(svc, ops)
		svc.Close()
		var sum Stats
		for i, op := range ops {
			r := <-op.reply
			if r.err != nil {
				t.Fatalf("chunk %d: %v", i, r.err)
			}
			sum.Accumulate(r.stats)
		}
		if countDeferred(ops) == 0 {
			t.Fatal("no chunk was deferred: the close had no backlog to drain")
		}
		cts := svc.ClassTotals()
		if len(cts) != 1 || cts[0].Ops != int64(len(ops)) {
			t.Fatalf("ClassTotals = %+v, want one bulk entry of %d ops", cts, len(ops))
		}
		att, class := svc.Totals().Attributed, cts[0].Attributed
		sum.ElapsedMs, att.ElapsedMs, class.ElapsedMs = 0, 0, 0 // documented exception to the sum
		statsClose(sum, att, t)
		statsClose(class, att, t)
	})
}

// TestServiceUrgentClass: a class registered Urgent bypasses weighted
// sharing entirely — every op goes through the strict-priority front
// and none is ever deferred.
func TestServiceUrgentClass(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{
		FairQuantum: 1, // would defer heavily if the ops were weighted
		Classes:     []QoSClass{{Name: "rt", Weight: 1, Urgent: true}},
	})
	defer svc.Close()

	sess := svc.NewSession(SessionOptions{MaxInflight: 2, Class: "rt"})
	chunks := randomChunks(rng, v, 4, 20)
	if _, err := sess.RunPlan(context.Background(), chunkPlan(chunks), Options{}); err != nil {
		t.Fatal(err)
	}
	cts := svc.ClassTotals()
	if len(cts) != 1 || cts[0].Class != "rt" {
		t.Fatalf("ClassTotals = %+v", cts)
	}
	if cts[0].UrgentOps != int64(len(chunks)) || cts[0].Deferred != 0 {
		t.Fatalf("urgent class served urgent=%d deferred=%d, want %d/0",
			cts[0].UrgentOps, cts[0].Deferred, len(chunks))
	}
}

// stripElapsed zeroes the fields whose per-class observation is
// documented as non-additive (a batch's elapsed is observed once per
// contributing class, like sessions observe it).
func stripElapsed(s Stats) Stats {
	s.ElapsedMs = 0
	return s
}

// TestClassAttributionSum is the per-class attribution-sum property
// with reads, writes, flushes, and cancellations in play: summing
// every class's Attributed reproduces ServiceTotals.Attributed field
// for field (ElapsedMs excepted, as documented), and a class served by
// exactly one session matches that session's own totals.
func TestClassAttributionSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{
		CacheBlocks: 4096,
		FairQuantum: 64,
		Classes: []QoSClass{
			{Name: "int", Weight: 1},
			{Name: "bulk", Weight: 4},
		},
		WriteBack: WriteBackOptions{Enabled: true},
	})
	defer svc.Close()

	si := svc.NewSession(SessionOptions{MaxInflight: 2, Class: "int"})
	sb := svc.NewSession(SessionOptions{MaxInflight: 2, Class: "bulk"})
	sw := svc.NewSession(SessionOptions{Class: "wr"}) // unregistered class
	sd := svc.NewSession(SessionOptions{})            // default "" class

	intChunks := randomChunks(rng, v, 3, 10)
	bulkChunks := randomChunks(rng, v, 3, 40)
	dfltChunks := randomChunks(rng, v, 2, 10)

	var wg sync.WaitGroup
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	run(func() error {
		_, err := si.RunPlan(context.Background(), chunkPlan(intChunks), Options{})
		return err
	})
	run(func() error {
		_, err := sb.RunPlan(context.Background(), chunkPlan(bulkChunks), Options{})
		return err
	})
	run(func() error {
		for i := 0; i < 4; i++ {
			if _, err := sw.Write(context.Background(),
				[]lvm.Request{{VLBN: int64(100 + 8*i), Count: 4}}, disk.SchedSPTF); err != nil {
				return err
			}
		}
		return sw.Flush(context.Background())
	})
	run(func() error {
		_, err := sd.RunPlan(context.Background(), chunkPlan(dfltChunks), Options{})
		return err
	})
	wg.Wait()
	if err := svc.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	cts := svc.ClassTotals()
	want := []string{"", "bulk", "int", "wr"}
	if len(cts) != len(want) {
		t.Fatalf("ClassTotals classes %v, want %v", cts, want)
	}
	var classSum Stats
	byClass := map[string]ClassTotals{}
	for i, ct := range cts {
		if ct.Class != want[i] {
			t.Fatalf("ClassTotals[%d] = %q, want %q (sorted)", i, ct.Class, want[i])
		}
		byClass[ct.Class] = ct
		st := stripElapsed(ct.Attributed)
		classSum.Accumulate(st)
	}
	svcAttr := stripElapsed(svc.Totals().Attributed)
	statsClose(classSum, svcAttr, t)

	// One session per class: the class's slice is exactly what the
	// session observed.
	for _, pair := range []struct {
		name string
		sess *Session
	}{{"int", si}, {"bulk", sb}, {"wr", sw}, {"", sd}} {
		statsClose(stripElapsed(byClass[pair.name].Attributed),
			stripElapsed(pair.sess.Totals()), t)
	}
}

// TestStatsAccumulatePartial: the Partial flag OR-folds through
// Accumulate, so one partial shard/chunk marks the merged result.
func TestStatsAccumulatePartial(t *testing.T) {
	var sum Stats
	sum.Accumulate(Stats{Cells: 1})
	if sum.Partial {
		t.Fatal("Partial set without a partial input")
	}
	sum.Accumulate(Stats{Cells: 2, Partial: true})
	sum.Accumulate(Stats{Cells: 3})
	if !sum.Partial {
		t.Fatal("Partial lost in accumulation")
	}
}

// TestQoSGroupsMatchesUrgentFront: for random op lists of one class —
// deadlines or none, spread enqueue stamps — a pass at a quantum no
// list reaches serves exactly the original urgent-front classification
// (qosGroupsRef): the deadline ops first, soonest first, then the rest
// in submission order. Ties in deadline pin the stable order. Fair
// share off serves the whole list as one batch.
func TestQoSGroupsMatchesUrgentFront(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	now := time.Unix(1_000_000, 0)
	for trial := 0; trial < 500; trial++ {
		ops := make([]*serviceOp, rng.Intn(12))
		for i := range ops {
			op := &serviceOp{kind: opChunk, class: "bulk"}
			op.enqueued = now.Add(-time.Duration(rng.Intn(10)) * time.Millisecond / 2)
			if rng.Intn(3) == 0 {
				op.deadline = now.Add(time.Duration(rng.Intn(5)-1) * time.Millisecond)
			}
			ops[i] = op
		}
		want := qosGroupsRef(slices.Clone(ops))
		got := passGroups(slices.Clone(ops), nil, 1<<20)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		for g := range want {
			if !slices.Equal(got[g], want[g]) {
				t.Fatalf("trial %d: group %d differs", trial, g)
			}
		}
		if off := passGroups(slices.Clone(ops), nil, 0); len(ops) > 0 && (len(off) != 1 || !slices.Equal(off[0], ops)) {
			t.Fatalf("trial %d: fair share off served %d groups, want the list as one", trial, len(off))
		}
	}
}

// TestUrgentOpsCountedByDeadline: ClassTotals.UrgentOps counts the ops
// that went through the strict-priority front. With fair sharing on (a
// quantum no op can exhaust, so nothing is deferred) exactly the ops
// under a context deadline are urgent; with it off there is no front,
// and a deadline makes nothing urgent.
func TestUrgentOpsCountedByDeadline(t *testing.T) {
	const n = 8
	run := func(opts ServiceOptions) []ClassTotals {
		svc := NewService(testVolume(t), opts)
		defer svc.Close()
		sess := svc.NewSession(SessionOptions{Class: "int"})
		withDeadline, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
		defer cancel()
		for i := 0; i < n; i++ {
			ctx := context.Background()
			if i%2 == 1 {
				ctx = withDeadline
			}
			plan := Static([]lvm.Request{{VLBN: int64(100 * i), Count: 2}}, disk.SchedSPTF)
			if _, err := sess.RunPlan(ctx, plan, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		return svc.ClassTotals()
	}
	for _, tc := range []struct {
		name   string
		opts   ServiceOptions
		urgent int64
	}{
		{"fair share, no aging", ServiceOptions{FairQuantum: 1 << 20, Classes: []QoSClass{{Name: "int", Weight: 1}}}, n / 2},
		{"no fair share", ServiceOptions{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cts := run(tc.opts)
			if len(cts) != 1 || cts[0].Class != "int" || cts[0].Ops != n {
				t.Fatalf("ClassTotals = %+v, want one class with %d ops", cts, n)
			}
			if cts[0].UrgentOps != tc.urgent || cts[0].Deferred != 0 {
				t.Fatalf("urgent %d deferred %d, want %d urgent and none deferred",
					cts[0].UrgentOps, cts[0].Deferred, tc.urgent)
			}
		})
	}
}

// steppedBox is one op of a hand-stepped admission pass: a cube of a
// 64³ MultiMap grid, in a QoS class, optionally under a context
// deadline.
type steppedBox struct {
	class    string
	lo       [3]int
	side     int
	deadline bool
}

// steppedPass serves one admission pass of boxes on a fresh Atlas 10k
// III service with opts — svc.process run by hand, so nothing depends
// on host timing — and returns each op's observed ElapsedMs. Every op is
// stamped enqueued at the pass's start, as submit would stamp it.
func steppedPass(t *testing.T, opts ServiceOptions, pass []steppedBox) []float64 {
	t.Helper()
	v, err := lvm.New(0, disk.AtlasTenKIII())
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.New(mapping.MultiMap, v, []int{64, 64, 64}, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(v, opts)
	defer svc.Close()
	now := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(time.Hour))
	defer cancel()
	ops := make([]*serviceOp, len(pass))
	for i, b := range pass {
		lo, hi := b.lo[:], []int{b.lo[0] + b.side, b.lo[1] + b.side, b.lo[2] + b.side}
		reqs, err := m.BoxRequests(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = &serviceOp{
			kind:     opChunk,
			chunk:    Chunk{Reqs: reqs, Policy: disk.SchedSPTF},
			class:    b.class,
			enqueued: now,
			reply:    make(chan opResult, 1),
		}
		if b.deadline {
			ops[i].ctx, ops[i].deadline = ctx, now.Add(time.Hour)
		}
	}
	svc.process(ops)
	ms := make([]float64, len(ops))
	for i, op := range ops {
		r := <-op.reply
		if r.err != nil {
			t.Fatal(r.err)
		}
		ms[i] = r.stats.ElapsedMs
	}
	return ms
}

// byClass folds a stepped pass's observed times per class, failing if
// two ops of one class observed different times: not one batch.
func byClass(t *testing.T, pass []steppedBox, ms []float64) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for i, b := range pass {
		if prev, ok := out[b.class]; ok && prev != ms[i] {
			t.Fatalf("op %d (%s) observed %v ms, its class-mate %v: not one batch", i, b.class, ms[i], prev)
		}
		out[b.class] = ms[i]
	}
	return out
}

// TestFairShareSteppedPass is the QoS claim as simulated time: one
// stepped admission pass holds a bulk 16³ box and three interactive 4³
// hot-region boxes of a 64³ MultiMap grid on an Atlas 10k III. With fair
// sharing off the four ops coalesce into one batch and each observes its
// whole elapsed time; at quantum 4096 with interactive:1 and bulk:4 each
// class's grant is its own batch, the cheaper first, so the interactive
// boxes no longer wait out the bulk scan. Each class's observed
// ElapsedMs is pinned.
func TestFairShareSteppedPass(t *testing.T) {
	pass := []steppedBox{
		{class: "bulk", lo: [3]int{24, 24, 24}, side: 16},
		{class: "interactive", lo: [3]int{0, 0, 0}, side: 4},
		{class: "interactive", lo: [3]int{4, 0, 4}, side: 4},
		{class: "interactive", lo: [3]int{0, 4, 4}, side: 4},
	}
	want := map[string][2]float64{ // class → {off, on}
		"interactive": {484.3381924198251, 82.33819241982506},
		"bulk":        {484.3381924198251, 414.7696793002915},
	}
	// Three repeats in one process: a stepped pass is a value, not a
	// sample.
	for rep := 0; rep < 3; rep++ {
		off := byClass(t, pass, steppedPass(t, ServiceOptions{}, pass))
		on := byClass(t, pass, steppedPass(t, ServiceOptions{FairQuantum: 4096, Classes: []QoSClass{
			{Name: "interactive", Weight: 1}, {Name: "bulk", Weight: 4},
		}}, pass))
		for class, w := range want {
			if off[class] != w[0] || on[class] != w[1] {
				t.Errorf("repeat %d: %s %v → %v ms, want %v → %v", rep, class, off[class], on[class], w[0], w[1])
			}
		}
		if on["interactive"]*2 > off["interactive"] {
			t.Errorf("repeat %d: fair sharing cut interactive from %v to %v ms, want ≥ 2× lower", rep, off["interactive"], on["interactive"])
		}
	}
}

// TestDeadlineSteppedPass is the deadline claim as simulated time: one
// stepped admission pass holds seven bulk 8³ boxes along the grid's
// diagonal and, last, one 4³ hot-region box under a context deadline,
// on a 64³ MultiMap grid on an Atlas 10k III. With fair sharing off the
// eight ops coalesce into one batch and the deadline op observes all of
// it; with it on (a quantum the bulk's 3 584 blocks do not reach, so
// only the deadline splits the pass) the deadline op is the urgent
// front, served as its own batch ahead of the bulk. The deadline op's
// and the bulk ops' observed ElapsedMs are pinned.
func TestDeadlineSteppedPass(t *testing.T) {
	var pass []steppedBox
	for i := 0; i < 7; i++ {
		pass = append(pass, steppedBox{class: "bulk", lo: [3]int{8 + 8*i, 8 + 8*i, 8 + 8*i}, side: 8})
	}
	pass = append(pass, steppedBox{class: "deadline", lo: [3]int{0, 0, 0}, side: 4, deadline: true})
	want := map[string][2]float64{ // class → {fair share off, on}
		"deadline": {734.9037900874636, 25.206997084548103},
		"bulk":     {734.9037900874636, 702.5422740524781},
	}
	for rep := 0; rep < 3; rep++ {
		off := byClass(t, pass, steppedPass(t, ServiceOptions{}, pass))
		on := byClass(t, pass, steppedPass(t, ServiceOptions{FairQuantum: 1 << 20}, pass))
		for class, w := range want {
			if off[class] != w[0] || on[class] != w[1] {
				t.Errorf("repeat %d: %s %v → %v ms, want %v → %v", rep, class, off[class], on[class], w[0], w[1])
			}
		}
		if on["deadline"]*5 > off["deadline"] {
			t.Errorf("repeat %d: the urgent front cut the deadline op from %v to %v ms, want ≥ 5× lower", rep, off["deadline"], on["deadline"])
		}
	}
}
