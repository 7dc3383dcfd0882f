package multimap

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// poolPair returns a two-drive test pool: drive 0 for the long-lived
// serving tenant, drive 1 for churn.
func testPool(t *testing.T) *Pool {
	t.Helper()
	p, err := OpenPool(WithPoolDrives(MediumTestDisk, MediumTestDisk), WithPoolDepth(32))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tenantBResult captures the deterministic outputs of tenant B's
// lifecycle — the clone's query Stats must be bit-identical across
// pools with identical drive-1 history.
type tenantBResult struct {
	fetch, beam    Stats
	fills          int
	grownBy        int64
	cowFaultBlocks int64
}

// runTenantBLifecycle drives one full churn round on drive 1 of p:
// create an updatable tenant, fill one cell's chain until its overflow
// pool is exhausted, grow online, prove the blocked insert now fits,
// snapshot, clone, query the clone, dirty the parent past the snapshot
// (copy-on-write faults), then destroy parent, clone, and snapshot.
// The write-back triggers are set far out of reach so flushes happen
// only at deterministic points (read overlap, snapshot, close) and the
// whole sequence replays bit-identically on a fresh pool.
func runTenantBLifecycle(ctx context.Context, t *testing.T, p *Pool) *tenantBResult {
	t.Helper()
	res := &tenantBResult{}
	tb, err := p.Create(ctx, "tenant-b", MultiMap, []int{12, 6, 4},
		WithDrives(1),
		Updatable(UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1)}),
		WithWriteBack(1<<30, time.Hour))
	if err != nil {
		t.Fatalf("create tenant-b: %v", err)
	}
	cell := []int{1, 2, 3}
	const fillCap = 100000
	for ; res.fills < fillCap; res.fills++ {
		_, err := tb.Store().def.Insert(ctx, cell)
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "overflow extent exhausted") {
			t.Fatalf("fill insert %d: %v", res.fills, err)
		}
		break
	}
	if res.fills == fillCap {
		t.Fatal("overflow pool never exhausted")
	}
	before := tb.Blocks()
	if err := p.Grow(ctx, "tenant-b", before/2+1); err != nil {
		t.Fatalf("grow: %v", err)
	}
	res.grownBy = tb.Blocks() - before
	if res.grownBy <= 0 {
		t.Fatalf("grow added %d blocks", res.grownBy)
	}
	// The insert the exhausted pool refused lands in the grown capacity
	// without any re-open.
	if _, err := tb.Store().def.Insert(ctx, cell); err != nil {
		t.Fatalf("post-grow insert: %v", err)
	}
	snap, err := p.Snapshot(ctx, "tenant-b")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	tc, err := p.Clone(ctx, snap, "tenant-b-clone")
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	if res.fetch, err = tc.Store().def.FetchCell(ctx, cell); err != nil {
		t.Fatalf("clone fetch: %v", err)
	}
	if res.beam, err = tc.Store().Beam(ctx, 0, []int{0, 2, 3}); err != nil {
		t.Fatalf("clone beam: %v", err)
	}
	// Dirty the parent past the snapshot: each first write to a frozen
	// track must fault it into private storage before landing.
	for i := 0; i < 8; i++ {
		st, err := tb.Store().def.Insert(ctx, cell)
		if err != nil {
			t.Fatalf("post-snapshot insert %d: %v", i, err)
		}
		res.cowFaultBlocks += st.CowFaultBlocks
	}
	if err := tb.Store().def.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := p.Destroy(ctx, "tenant-b-clone"); err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(ctx, "tenant-b"); err != nil {
		t.Fatal(err)
	}
	snap.Free()
	return res
}

// TestPoolLifecycleUnderLiveTraffic is the acceptance path: tenant B
// runs its whole lifecycle on drive 1 — created, grown past its
// initial overflow capacity, snapshotted, cloned, queried on the
// clone, dirtied copy-on-write, destroyed — while tenant A's QoS burst
// sessions keep serving on drive 0 with attribution sums intact. The
// clone's query Stats must equal, field for field, the same lifecycle
// replayed on a fresh pool with no concurrent tenant at all.
func TestPoolLifecycleUnderLiveTraffic(t *testing.T) {
	ctx := context.Background()
	p1 := testPool(t)
	ta, err := p1.Create(ctx, "tenant-a", MultiMap, []int{40, 12, 8},
		WithDrives(0),
		WithCache(4096),
		WithFairShare(256),
		WithQoSClass("interactive", 1, false),
		WithQoSClass("bulk", 4, false))
	if err != nil {
		t.Fatalf("create tenant-a: %v", err)
	}
	usage0 := p1.Usage()
	if len(usage0) != 2 {
		t.Fatalf("pool has %d drives, want 2", len(usage0))
	}

	// Tenant A's live burst: classed sessions that keep serving until
	// the churn finishes, at least one op each.
	const clients = 3
	sessions := make([]*Session, clients)
	for i := range sessions {
		class := "interactive"
		if i%2 == 1 {
			class = "bulk"
		}
		sessions[i] = ta.Store().BeginQoS(class)
	}
	done := make(chan struct{})
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for q := 0; ; q++ {
				if q > 0 {
					select {
					case <-done:
						return
					default:
					}
				}
				var err error
				if (i+q)%2 == 0 {
					_, err = sessions[i].Beam(ctx, 0, []int{0, (q * 5) % 12, q % 8})
				} else {
					_, err = sessions[i].RangeQuery(ctx, []int{(q * 3) % 20, 0, 0}, []int{(q*3)%20 + 10, 6, 4})
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}

	live := runTenantBLifecycle(ctx, t, p1)
	close(done)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant A client %d: %v", i, err)
		}
	}

	if live.cowFaultBlocks <= 0 {
		t.Fatalf("post-snapshot writes faulted %d blocks, want > 0", live.cowFaultBlocks)
	}
	// Destroy returned every drive-1 block: churn leaves no residue.
	usage1 := p1.Usage()
	if usage1[1].FreeBlocks != usage0[1].FreeBlocks {
		t.Fatalf("drive 1 leaked: %d free before churn, %d after", usage0[1].FreeBlocks, usage1[1].FreeBlocks)
	}
	// Drive 0 still carries exactly tenant A.
	if usage1[0].FreeBlocks != usage0[0].FreeBlocks {
		t.Fatalf("drive 0 changed under churn: %d free before, %d after", usage0[0].FreeBlocks, usage1[0].FreeBlocks)
	}

	// Attribution survived the concurrent churn: tenant A's session sums
	// equal its services' attributed totals (sessions observe per-chunk
	// elapsed, the loop per-batch, so ElapsedMs is excluded).
	var sum Stats
	for _, sess := range sessions {
		sum.Accumulate(sess.Stats())
	}
	var attr Stats
	for _, sm := range ta.Store().Metrics().Shards {
		attr.Accumulate(sm.Totals.Attributed)
	}
	if sum.Cells != attr.Cells || sum.Requests != attr.Requests || sum.Padding != attr.Padding ||
		sum.CacheHits != attr.CacheHits || sum.CacheMisses != attr.CacheMisses ||
		sum.CowFaultBlocks != attr.CowFaultBlocks {
		t.Fatalf("tenant A session sums %+v != attributed %+v", sum, attr)
	}
	if diff := math.Abs(sum.TotalMs - attr.TotalMs); diff > 1e-6*(1+sum.TotalMs) {
		t.Fatalf("attributed time drift %g: %v vs %v", diff, sum.TotalMs, attr.TotalMs)
	}
	if sum.Cells == 0 {
		t.Fatal("tenant A served nothing during the churn")
	}

	// Replay the identical lifecycle on a fresh pool with no tenant A:
	// drive 1's history is the same, so the clone's query Stats must be
	// bit-identical — the clone of a live pool reads exactly what a
	// fresh copy would.
	fresh := runTenantBLifecycle(ctx, t, testPool(t))
	if live.fills != fresh.fills {
		t.Fatalf("lifecycle diverged: %d fills under live traffic, %d fresh", live.fills, fresh.fills)
	}
	if live.fetch != fresh.fetch {
		t.Fatalf("clone fetch stats diverged:\nlive  %+v\nfresh %+v", live.fetch, fresh.fetch)
	}
	if live.beam != fresh.beam {
		t.Fatalf("clone beam stats diverged:\nlive  %+v\nfresh %+v", live.beam, fresh.beam)
	}

	if err := p1.Destroy(ctx, "tenant-a"); err != nil {
		t.Fatal(err)
	}
}

// TestGrownVolumeSpans covers the mapping collision checks across
// grown volumes: growing a tenant appends segments to its volume, and
// the mapper's span bookkeeping must ignore them — every pre-growth
// SpanOnDisk unchanged, every new segment's span empty —
// while the §4.6 overflow pool extends into the new extents.
func TestGrownVolumeSpans(t *testing.T) {
	ctx := context.Background()
	p := testPool(t)
	tb, err := p.Create(ctx, "b", MultiMap, []int{12, 6, 4},
		WithDrives(1),
		Updatable(UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1)}))
	if err != nil {
		t.Fatal(err)
	}
	st := tb.Store()
	m := st.grp.Member(0).Map
	lv := st.grp.Member(0).Svc.Volume()
	nd := lv.NumDisks()
	oldTotal := lv.TotalBlocks()
	pre := make([][2]int64, nd)
	for i := range pre {
		lo, hi := m.SpanOnDisk(i)
		pre[i] = [2]int64{lo, hi}
	}

	// Exhaust the initial overflow pool, then grow — twice, proving
	// spans stay stable across repeated growth.
	cell := []int{1, 2, 3}
	for round := 0; round < 2; round++ {
		fills := 0
		for ; fills < 100000; fills++ {
			if _, err := st.def.Insert(ctx, cell); err != nil {
				if !strings.Contains(err.Error(), "overflow extent exhausted") {
					t.Fatalf("round %d fill %d: %v", round, fills, err)
				}
				break
			}
		}
		if fills == 100000 {
			t.Fatalf("round %d: overflow pool never exhausted", round)
		}
		before, err := points(st, cell)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Grow(ctx, "b", lv.TotalBlocks()/2+1); err != nil {
			t.Fatalf("round %d grow: %v", round, err)
		}
		// Every pre-growth overflow page is full, so this insert's page
		// can only come from an extent the growth just added.
		if _, err := st.def.Insert(ctx, cell); err != nil {
			t.Fatalf("round %d post-grow insert: %v", round, err)
		}
		if got, err := points(st, cell); err != nil || got != before+1 {
			t.Fatalf("round %d: %d points after post-grow insert, want %d (err %v)", round, got, before+1, err)
		}
	}

	// Growth appended segments past the original capacity...
	if lv.NumDisks() <= nd {
		t.Fatalf("grow kept %d segments", lv.NumDisks())
	}
	for i := nd; i < lv.NumDisks(); i++ {
		if lv.DiskStart(i) < oldTotal {
			t.Fatalf("new segment %d starts at %d, inside the original %d blocks", i, lv.DiskStart(i), oldTotal)
		}
		// ...that the mapper never placed cells on: their spans are empty,
		// so a collision check against a new extent always passes.
		if lo, hi := m.SpanOnDisk(i); lo != 0 || hi != 0 {
			t.Fatalf("new segment %d has span [%d,%d), want empty", i, lo, hi)
		}
	}
	// ...and left every pre-growth span byte-identical.
	for i := range pre {
		if lo, hi := m.SpanOnDisk(i); lo != pre[i][0] || hi != pre[i][1] {
			t.Fatalf("segment %d span moved: [%d,%d) -> [%d,%d)", i, pre[i][0], pre[i][1], lo, hi)
		}
	}

	if err := p.Destroy(ctx, "b"); err != nil {
		t.Fatal(err)
	}
}

// TestPoolAccounting covers the pool surface around the lifecycle:
// tenant listing, drive usage, duplicate and unknown names, explicit
// capacity, and snapshot misuse.
func TestPoolAccounting(t *testing.T) {
	ctx := context.Background()
	p := testPool(t)
	if got := p.Tenants(); len(got) != 0 {
		t.Fatalf("fresh pool lists tenants: %+v", got)
	}
	free0 := p.Usage()[0].FreeBlocks

	a, err := p.Create(ctx, "alpha", MultiMap, []int{12, 6, 4}, WithDrives(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create(ctx, "alpha", MultiMap, []int{12, 6, 4}); err == nil {
		t.Error("duplicate tenant name accepted")
	}
	// Explicit capacity is honoured as a floor (pool extents are
	// track-granular) and drives thin accounting.
	b, err := p.Create(ctx, "beta", MultiMap, []int{12, 6, 4},
		WithDrives(1), WithCapacity(a.Blocks()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Blocks() < a.Blocks() {
		t.Fatalf("beta got %d blocks, want at least the requested %d", b.Blocks(), a.Blocks())
	}

	infos := p.Tenants()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("tenant listing wrong: %+v", infos)
	}
	if infos[0].Blocks != a.Blocks() || infos[0].Shards != 1 {
		t.Fatalf("alpha accounting wrong: %+v", infos[0])
	}
	if used := free0 - p.Usage()[0].FreeBlocks; used != a.Blocks() {
		t.Fatalf("drive 0 shows %d blocks used, want %d", used, a.Blocks())
	}

	if err := p.Grow(ctx, "nope", 128); err == nil {
		t.Error("grow of unknown tenant accepted")
	}
	if err := p.Grow(ctx, "alpha", 0); err == nil {
		t.Error("zero-block grow accepted")
	}
	if _, err := p.Snapshot(ctx, "nope"); err == nil {
		t.Error("snapshot of unknown tenant accepted")
	}
	if err := p.Destroy(ctx, "nope"); err == nil {
		t.Error("destroy of unknown tenant accepted")
	}

	// A freed snapshot cannot clone; a live one can, even after the
	// parent is gone.
	snap, err := p.Snapshot(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	c, err := p.Clone(ctx, snap, "gamma")
	if err != nil {
		t.Fatalf("clone from snapshot of destroyed parent: %v", err)
	}
	if _, err := c.Store().Beam(ctx, 0, []int{0, 2, 3}); err != nil {
		t.Fatalf("query on orphaned clone: %v", err)
	}
	snap.Free()
	snap.Free() // idempotent
	if _, err := p.Clone(ctx, snap, "delta"); err == nil {
		t.Error("clone from freed snapshot accepted")
	}
	if err := p.Destroy(ctx, "gamma"); err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(ctx, "beta"); err != nil {
		t.Fatal(err)
	}
	// Everything released: both drives fully free again.
	for i, u := range p.Usage() {
		if u.FreeBlocks != u.TotalBlocks {
			t.Fatalf("drive %d leaked: %d of %d blocks free", i, u.FreeBlocks, u.TotalBlocks)
		}
	}
}

// TestPoolAutoGrow proves WithAutoGrow absorbs overflow exhaustion
// online: a tenant filled past its overflow pool keeps inserting (the
// pool grows it mid-insert and retries), the growth is visible in the
// tenant's allocated blocks and in Usage's per-drive AutoGrownBlocks
// on exactly the tenant's drive, and a bulk LoadCell that exhausts the
// pool mid-load lands every requested point across the growth. The
// count falls back to 0 once nothing references the grown extents.
func TestPoolAutoGrow(t *testing.T) {
	ctx := context.Background()
	p, err := OpenPool(WithPoolDrives(MediumTestDisk, MediumTestDisk),
		WithPoolDepth(32), WithAutoGrow(128))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := p.Create(ctx, "tenant-b", MultiMap, []int{12, 6, 4},
		WithDrives(1),
		Updatable(UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1)}))
	if err != nil {
		t.Fatal(err)
	}
	cell := []int{1, 2, 3}
	initial := tb.Blocks()
	const fillCap = 100000
	fills := 0
	for ; fills < fillCap; fills++ {
		if _, err := tb.Store().def.Insert(ctx, cell); err != nil {
			t.Fatalf("insert %d surfaced despite auto-grow: %v", fills, err)
		}
		if tb.Blocks() > initial {
			break
		}
	}
	if tb.Blocks() <= initial {
		t.Fatalf("auto-grow never engaged in %d inserts", fills)
	}
	// Growth keeps the chain intact: every inserted point is live.
	n, err := points(tb.Store(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if n != fills+1 {
		t.Fatalf("cell holds %d points after %d inserts", n, fills+1)
	}
	us := p.Usage()
	if us[1].AutoGrownBlocks <= 0 {
		t.Fatalf("drive 1 shows no auto-grown blocks: %+v", us)
	}
	if us[0].AutoGrownBlocks != 0 {
		t.Fatalf("auto-grow leaked onto drive 0: %+v", us)
	}
	if got := tb.Blocks() - initial; got != us[1].AutoGrownBlocks {
		t.Fatalf("tenant grew %d blocks but drive accounts %d", got, us[1].AutoGrownBlocks)
	}

	// Bulk load through another cell until the grown pool is exhausted
	// again mid-load: the retry must land exactly the requested points.
	cell2 := []int{2, 3, 1}
	grown := tb.Blocks()
	load := int(grown) // far more points than the current free overflow holds
	if _, err := tb.Store().def.LoadCell(ctx, cell2, load); err != nil {
		t.Fatalf("bulk load across auto-grow: %v", err)
	}
	if n, err = points(tb.Store(), cell2); err != nil || n != load {
		t.Fatalf("bulk-loaded cell holds %d points, want %d (err %v)", n, load, err)
	}
	if tb.Blocks() <= grown {
		t.Fatal("bulk load never triggered a second auto-grow")
	}

	// The auto-grown blocks leave the count with the space: a snapshot
	// keeps them allocated past the tenant's destroy, and its Free
	// returns the drive to a count of 0.
	autoGrown := tb.Blocks() - initial
	snap, err := p.Snapshot(ctx, "tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(ctx, "tenant-b"); err != nil {
		t.Fatal(err)
	}
	if us = p.Usage(); us[1].AutoGrownBlocks != autoGrown {
		t.Fatalf("snapshot holds %d auto-grown blocks, drive accounts %d", autoGrown, us[1].AutoGrownBlocks)
	}
	snap.Free()
	if us = p.Usage(); us[1].AutoGrownBlocks != 0 || us[1].FreeBlocks != us[1].TotalBlocks {
		t.Fatalf("drive 1 after destroy and free: %+v, want every block free and none auto-grown", us[1])
	}

	// The increment must be positive.
	if _, err := OpenPool(WithAutoGrow(0)); err == nil {
		t.Fatal("WithAutoGrow(0) accepted")
	}
}

// TestCloneStoreFieldsMatchOpen: a cloned tenant's Store is assembled
// by the same newStore as an opened one, so no field the open path
// fills can be missing from a clone (a nil latency ring once was; the
// latency histogram is now a value field, ready at its zero value). It
// reflects over Store: every field non-zero in an opened updatable
// tenant is non-zero in its clone, and the operations that lean on
// those fields work on the clone.
func TestCloneStoreFieldsMatchOpen(t *testing.T) {
	ctx := context.Background()
	p, err := OpenPool(WithPoolDrives(MediumTestDisk, MediumTestDisk),
		WithPoolDepth(32), WithAutoGrow(128))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := p.Create(ctx, "parent", MultiMap, []int{12, 6, 4},
		WithShards(2), WithMaxInflight(2), WithQoS("gold"), WithCache(4096),
		Updatable(UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1)}))
	if err != nil {
		t.Fatal(err)
	}
	cell := []int{1, 2, 3}
	if _, err := parent.Store().def.Insert(ctx, cell); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Snapshot(ctx, "parent")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Free()
	tc, err := p.Clone(ctx, snap, "clone")
	if err != nil {
		t.Fatal(err)
	}
	opened, cloned := reflect.ValueOf(parent.Store()).Elem(), reflect.ValueOf(tc.Store()).Elem()
	for i := 0; i < opened.NumField(); i++ {
		if name := opened.Type().Field(i).Name; !opened.Field(i).IsZero() && cloned.Field(i).IsZero() {
			t.Errorf("Store.%s is set by open but zero in a clone", name)
		}
	}

	clone := tc.Store()
	if _, err := clone.def.FetchCell(ctx, cell); err != nil {
		t.Fatalf("clone fetch: %v", err)
	}
	if m := clone.Metrics(); m.Queries != 1 {
		t.Fatalf("clone metrics count %d queries after one fetch: %+v", m.Queries, m)
	}
	st, err := clone.def.Insert(ctx, cell)
	if err != nil {
		t.Fatalf("clone insert: %v", err)
	}
	if st.CowFaultBlocks == 0 {
		t.Fatalf("first write to a cloned track faulted nothing: %+v", st)
	}
	if n, err := points(clone, cell); err != nil || n != 2 {
		t.Fatalf("clone holds %d points (err %v), want the parent's 1 plus its own", n, err)
	}
	if err := clone.def.Flush(ctx); err != nil {
		t.Fatalf("clone flush: %v", err)
	}
}

// TestSnapshotFreeConcurrentClone races Snapshot.Free against a Clone
// of the same snapshot, twenty rounds over. Free and Clone serialize on
// the pool's lock, so each round's clone either lands before the free
// or fails naming the freed snapshot. Once every tenant is destroyed,
// the pool's space accounting is back at its start state: no extent
// reference leaked or was released twice. Run it under -race.
func TestSnapshotFreeConcurrentClone(t *testing.T) {
	ctx := context.Background()
	p := testPool(t)
	usage0 := p.Usage()
	if _, err := p.Create(ctx, "parent", MultiMap, []int{12, 6, 4}, WithDrives(0)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		snap, err := p.Snapshot(ctx, "parent")
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("clone-%d", round)
		var cloneErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, cloneErr = p.Clone(ctx, snap, name)
		}()
		go func() {
			defer wg.Done()
			snap.Free()
		}()
		wg.Wait()
		switch {
		case cloneErr == nil:
			if err := p.Destroy(ctx, name); err != nil {
				t.Fatal(err)
			}
		case !strings.Contains(cloneErr.Error(), "already freed"):
			t.Fatalf("round %d: clone: %v", round, cloneErr)
		}
	}
	if err := p.Destroy(ctx, "parent"); err != nil {
		t.Fatal(err)
	}
	if got := p.Usage(); !reflect.DeepEqual(got, usage0) {
		t.Fatalf("pool usage after every tenant is gone: %+v, want the start state %+v", got, usage0)
	}
}
