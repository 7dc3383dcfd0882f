package engine

import (
	"testing"
)

// checkUsedBy asserts the per-class accounting invariant — the class
// usage counters sum to used and match the indexed extents exactly —
// along with the rest of the cache's structural invariants.
func checkUsedBy(t *testing.T, c *extentCache) {
	t.Helper()
	if err := checkCacheInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestExtentCacheBorrowThenReclaim pins the borrower-first rule: a
// class may grow past its reserve into idle capacity, but once the
// cache overflows the victim is the LRU-most extent among over-reserve
// classes — an at-reserve class's colder extents are skipped.
func TestExtentCacheBorrowThenReclaim(t *testing.T) {
	c := newExtentCache(100, map[string]int64{"a": 50, "b": 50})

	// a borrows into b's idle reserve: 80 blocks fit without eviction.
	c.insertFor(0, 80, "a")
	checkUsedBy(t, c)
	if c.used != 80 {
		t.Fatalf("borrow blocked: used %d, want 80", c.used)
	}

	// b shows up under its reserve (40 ≤ 50): the overflow must come
	// out of a's borrowed blocks, not block b's insert.
	c.insertFor(100, 140, "b")
	checkUsedBy(t, c)
	if c.covered(0, 80) {
		t.Fatal("borrower extent survived the owner's return")
	}
	if !c.covered(100, 140) {
		t.Fatal("under-reserve insert was evicted")
	}
	if c.usedBy("a") != 0 || c.usedBy("b") != 40 {
		t.Fatalf("usedBy a=%d b=%d, want 0/40", c.usedBy("a"), c.usedBy("b"))
	}

	// Both classes at reserve, then b goes over: plain LRU would evict
	// a's [200,250) (the LRU back); borrower-first skips it because a
	// is at its floor, and reclaims b's own older extent instead.
	c.insertFor(200, 250, "a") // a back to exactly 50
	c.insertFor(300, 310, "b") // used 100, both at/under reserve
	c.insertFor(400, 450, "b") // b now 100 > 50: overflow by 60
	checkUsedBy(t, c)
	if c.covered(100, 140) || c.covered(300, 310) {
		t.Fatal("over-reserve class kept its LRU-most extents")
	}
	if !c.covered(200, 250) || !c.covered(400, 450) {
		t.Fatal("at-reserve extent was evicted instead of the borrower's")
	}
	if c.usedBy("a") != 50 || c.usedBy("b") != 50 {
		t.Fatalf("usedBy a=%d b=%d, want 50/50", c.usedBy("a"), c.usedBy("b"))
	}
}

// TestExtentCacheReserveFloor: a class at or under its reserve is
// immune to another class's pressure — repeated bulk inserts can fill
// every idle block but never push the protected class below its floor.
func TestExtentCacheReserveFloor(t *testing.T) {
	c := newExtentCache(100, map[string]int64{"hot": 40, "bulk": 60})

	c.insertFor(0, 40, "hot") // exactly at its reserve
	for i := int64(0); i < 8; i++ {
		c.insertFor(1000+40*i, 1000+40*i+30, "bulk")
		checkUsedBy(t, c)
		if !c.covered(0, 40) {
			t.Fatalf("bulk insert %d evicted the protected class", i)
		}
		if c.usedBy("hot") < 40 {
			t.Fatalf("hot below reserve: %d", c.usedBy("hot"))
		}
	}
	if c.used > 100 {
		t.Fatalf("capacity exceeded: %d", c.used)
	}
}

// TestExtentCacheNilSharesPlainLRU: class tags without shares must not
// change eviction at all — the victim is the LRU back, whatever class
// it belongs to (the bit-equivalence the QoS-off path relies on).
func TestExtentCacheNilSharesPlainLRU(t *testing.T) {
	c := newExtentCache(100, nil)
	c.insertFor(0, 40, "b")
	c.insertFor(100, 160, "a")
	c.insertFor(200, 250, "b")
	checkUsedBy(t, c)
	// Overflowed by 50: plain LRU drops [0,40) then [100,160)'s 60
	// covers the rest.
	if c.covered(0, 40) {
		t.Fatal("LRU back survived")
	}
	if c.covered(100, 160) {
		t.Fatal("second-oldest survived a 50-block overflow")
	}
	if !c.covered(200, 250) {
		t.Fatal("most recent extent evicted")
	}
}

// TestExtentCacheMergeRetags: merging re-tags the union to the
// inserting class and moves the blocks between the class counters.
func TestExtentCacheMergeRetags(t *testing.T) {
	c := newExtentCache(1000, map[string]int64{"a": 500, "b": 500})
	c.insertFor(0, 50, "a")
	c.insertFor(50, 100, "b") // adjacent: merges into [0,100) tagged b
	checkUsedBy(t, c)
	if ext := c.extents(); len(ext) != 1 || ext[0].class != "b" {
		t.Fatalf("merge kept class %q over %d extents", ext[0].class, len(ext))
	}
	if c.usedBy("a") != 0 || c.usedBy("b") != 100 {
		t.Fatalf("usedBy a=%d b=%d after re-tag, want 0/100", c.usedBy("a"), c.usedBy("b"))
	}
}

// TestExtentCacheInvalidatePartitioned: trims and splits keep the
// remnants' class tags and the per-class accounting exact — the
// write-path invalidation the service runs before charging a write.
func TestExtentCacheInvalidatePartitioned(t *testing.T) {
	c := newExtentCache(1000, map[string]int64{"a": 500, "b": 500})
	c.insertFor(0, 100, "a")
	c.insertFor(200, 300, "b")

	// Straddling split of a's extent: both remnants stay class a.
	if got := c.invalidate(40, 60); got != 20 {
		t.Fatalf("split invalidated %d blocks, want 20", got)
	}
	checkUsedBy(t, c)
	if c.usedBy("a") != 80 {
		t.Fatalf("usedBy[a] = %d after split, want 80", c.usedBy("a"))
	}
	for _, e := range c.extents() {
		if e.start < 200 && e.class != "a" {
			t.Fatalf("remnant [%d,%d) lost its class: %q", e.start, e.end, e.class)
		}
	}

	// Boundary trim of b's extent.
	if got := c.invalidate(200, 250); got != 50 {
		t.Fatalf("trim invalidated %d blocks, want 50", got)
	}
	checkUsedBy(t, c)
	if c.usedBy("b") != 50 {
		t.Fatalf("usedBy[b] = %d after trim, want 50", c.usedBy("b"))
	}

	// Cross-class range: drops a's remnants and b's trim in one sweep.
	if got := c.invalidate(0, 1000); got != 50+80 {
		t.Fatalf("full invalidate dropped %d, want 130", got)
	}
	checkUsedBy(t, c)
	if c.used != 0 || c.usedBy("a") != 0 || c.usedBy("b") != 0 {
		t.Fatalf("accounting nonzero after full invalidate: used=%d a=%d b=%d",
			c.used, c.usedBy("a"), c.usedBy("b"))
	}
}

// TestExtentCacheUnregisteredClassReclaimed: a class without a share
// has a zero reserve, so it is over its floor as soon as it holds a
// block — its extents are reclaimed first, even when a registered
// class under its reserve holds an older one that plain LRU would
// evict.
func TestExtentCacheUnregisteredClassReclaimed(t *testing.T) {
	c := newExtentCache(100, map[string]int64{"keep": 50}) // "old" unregistered: share 0
	c.insertFor(0, 30, "keep")
	c.insertFor(100, 160, "old")
	c.insertFor(200, 250, "old") // overflow by 40
	checkUsedBy(t, c)
	if !c.covered(0, 30) {
		t.Fatal("under-reserve class lost its LRU-back extent to a share-0 class")
	}
	if c.covered(100, 160) || !c.covered(200, 250) {
		t.Fatal("share-0 class not reclaimed LRU-first")
	}
	if c.usedBy("keep") != 30 || c.usedBy("old") != 50 {
		t.Fatalf("usedBy keep=%d old=%d, want 30/50", c.usedBy("keep"), c.usedBy("old"))
	}
}

// TestExtentCacheClearResetsClasses: clear zeroes the per-class
// counters along with the extents.
func TestExtentCacheClearResetsClasses(t *testing.T) {
	c := newExtentCache(100, map[string]int64{"a": 50})
	c.insertFor(0, 40, "a")
	c.insertFor(50, 60, "b")
	c.clear()
	if len(c.classes) != 0 || c.used != 0 || len(c.extents()) != 0 {
		t.Fatalf("clear left state: classes=%d used=%d extents=%d",
			len(c.classes), c.used, len(c.extents()))
	}
	c.insertFor(0, 10, "a")
	checkUsedBy(t, c)
}
