package engine

import (
	"context"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// checkCache fails the test on a broken cache invariant.
func checkCache(t *testing.T, c *extentCache) {
	t.Helper()
	if err := checkCacheInvariants(c); err != nil {
		t.Fatal(err)
	}
}

// TestExtentCacheNilSharesPlainLRU: with fair sharing on, sessions of
// different QoS classes share one plain LRU. The class decides admission
// order, not what the cache keeps: the lighter class's read evicts the
// heavier class's older extent, and each class hits on the other's.
func TestExtentCacheNilSharesPlainLRU(t *testing.T) {
	svc := NewService(testVolume(t), ServiceOptions{
		CacheBlocks: 100,
		FairQuantum: 1 << 20,
		Classes:     []QoSClass{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
	})
	defer svc.Close()
	a, b := svc.NewSession(SessionOptions{Class: "a"}), svc.NewSession(SessionOptions{Class: "b"})
	read := func(sess *Session, vlbn int64, count int) Stats {
		t.Helper()
		st, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: vlbn, Count: count}}, disk.SchedFIFO), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	read(b, 0, 40)
	read(a, 100, 60)
	read(b, 200, 50) // 150 > 100: the LRU back [0,40), then a's [100,160), go
	if st := read(a, 200, 50); st.CacheHits != 1 {
		t.Fatalf("class a missed class b's cached extent: %+v", st)
	}
	if st := read(b, 0, 40); st.CacheMisses != 1 {
		t.Fatalf("the LRU back survived: %+v", st)
	}
	if st := read(a, 100, 60); st.CacheMisses != 1 {
		t.Fatalf("the heavier class's extent survived a 50-block overflow: %+v", st)
	}
}

// TestExtentCacheMergeRetags: an insert exactly adjacent to a cached
// extent merges into one extent, whose blocks are counted once.
func TestExtentCacheMergeRetags(t *testing.T) {
	c := newExtentCache(1000)
	c.insert(0, 50)
	c.insert(50, 100)
	checkCache(t, c)
	if ext := c.extents(); len(ext) != 1 || ext[0] != (cachedView{0, 100}) {
		t.Fatalf("adjacent inserts left %+v, want one extent [0,100)", ext)
	}
	if c.used != 100 {
		t.Fatalf("used %d after the merge, want 100", c.used)
	}
}

// TestExtentCacheInvalidatePartitioned: a straddling split, a boundary
// trim and a sweep across several extents each invalidate exactly the
// cached blocks inside the range — the write-path invalidation the
// service runs before charging a write.
func TestExtentCacheInvalidatePartitioned(t *testing.T) {
	c := newExtentCache(1000)
	c.insert(0, 100)
	c.insert(200, 300)

	if got := c.invalidate(40, 60); got != 20 {
		t.Fatalf("split invalidated %d blocks, want 20", got)
	}
	checkCache(t, c)
	if c.used != 180 || len(c.extents()) != 3 {
		t.Fatalf("after the split: used %d over %+v, want 180 over 3 extents", c.used, c.extents())
	}

	if got := c.invalidate(200, 250); got != 50 {
		t.Fatalf("trim invalidated %d blocks, want 50", got)
	}
	checkCache(t, c)
	if c.used != 130 {
		t.Fatalf("used %d after the trim, want 130", c.used)
	}

	if got := c.invalidate(0, 1000); got != 130 {
		t.Fatalf("full invalidate dropped %d, want 130", got)
	}
	checkCache(t, c)
	if c.used != 0 || len(c.extents()) != 0 {
		t.Fatalf("cache not empty after full invalidate: used %d, %+v", c.used, c.extents())
	}
}
