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
// order zeroing deficits, and takeUrgent pulls aged / deadline /
// urgent-class ops out of the weighted backlogs (how aging bounds DRR
// deferral).
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
	aged := drrOp("slow", 5)
	aged.enqueued = now.Add(-time.Second)
	fresh := drrOp("slow", 5)
	fresh.enqueued = now
	dl := drrOp("slow", 5)
	dl.enqueued = now
	dl.deadline = now.Add(time.Millisecond)
	urgent := drrOp("rt", 5)
	urgent.enqueued = now
	pushOps(d, aged, fresh, dl, urgent)
	got := d.takeUrgent(classes, 100*time.Millisecond, now)
	if len(got) != 3 {
		t.Fatalf("takeUrgent pulled %d ops, want 3 (aged, deadline, urgent class)", len(got))
	}
	if d.count != 1 || len(d.pending["slow"]) != 1 || d.pending["slow"][0] != fresh {
		t.Fatalf("fresh op not left in backlog (count %d)", d.count)
	}
}

// TestServiceFairShareDeferral: with a tiny quantum and two chunks in
// flight, the second chunk of the pass is deferred at least once (the
// Deferred counter counts it), yet everything still completes and the
// class's attribution matches the session's observed stats.
func TestServiceFairShareDeferral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{
		BatchWindow: 30 * time.Millisecond,
		FairQuantum: 1,
		Classes:     []QoSClass{{Name: "bulk", Weight: 1}},
	})
	defer svc.Close()

	sess := svc.NewSession(SessionOptions{MaxInflight: 2, Class: "bulk"})
	chunks := randomChunks(rng, v, 4, 30)
	if _, err := sess.RunPlan(context.Background(), chunkPlan(chunks), Options{}); err != nil {
		t.Fatal(err)
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
		t.Fatal("tiny quantum with pipelined chunks never deferred — DRR not engaged")
	}
	if ct.UrgentOps != 0 {
		t.Fatalf("no deadline anywhere but %d urgent ops", ct.UrgentOps)
	}
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

// TestQoSGroupsMatchesUrgentFront: for random op lists — deadlines or
// none, enqueue ages below, exactly at and above the aging cap, several
// classes — a FairQuantum-0 pass serves exactly the groups the reference
// classifier does. Ages exactly at the cap pin isUrgent's >= comparison
// (flip it to > and this fails); ties in effective deadline pin the
// stable order.
func TestQoSGroupsMatchesUrgentFront(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	now := time.Unix(1_000_000, 0)
	classes := []string{"", "bulk", "interactive"}
	for trial := 0; trial < 500; trial++ {
		aging := time.Duration(rng.Intn(4)) * time.Millisecond // 0 = off
		ops := make([]*serviceOp, rng.Intn(12))
		for i := range ops {
			op := &serviceOp{kind: opChunk, class: classes[rng.Intn(len(classes))]}
			// Ages in half-millisecond steps land on the cap exactly.
			op.enqueued = now.Add(-time.Duration(rng.Intn(10)) * time.Millisecond / 2)
			if rng.Intn(3) == 0 {
				op.deadline = now.Add(time.Duration(rng.Intn(5)-1) * time.Millisecond)
			}
			ops[i] = op
		}
		want := qosGroupsRef(slices.Clone(ops), aging, now)
		got := passGroups(slices.Clone(ops), nil, 0, aging, now)
		if len(got) != len(want) {
			t.Fatalf("trial %d (aging %v): %d groups, want %d", trial, aging, len(got), len(want))
		}
		for g := range want {
			if !slices.Equal(got[g], want[g]) {
				t.Fatalf("trial %d (aging %v): group %d differs", trial, aging, g)
			}
		}
	}
}

// TestUrgentOpsCountedWithoutFairShare: the strict-priority front is
// the same code with fair sharing off, so ClassTotals.UrgentOps counts
// the ops that went through it there too — with aging on and no
// quantum, every op under a context deadline, and only those (the aging
// cap is an hour away).
func TestUrgentOpsCountedWithoutFairShare(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{DeadlineAging: time.Hour})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{Class: "int"})
	withDeadline, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	const n = 8
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
	cts := svc.ClassTotals()
	if len(cts) != 1 || cts[0].Class != "int" || cts[0].Ops != n {
		t.Fatalf("ClassTotals = %+v, want one class with %d ops", cts, n)
	}
	if cts[0].UrgentOps != n/2 || cts[0].Deferred != 0 {
		t.Fatalf("urgent %d deferred %d, want %d urgent (the deadline ops) and none deferred",
			cts[0].UrgentOps, cts[0].Deferred, n/2)
	}
}
