package engine

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file holds the extent cache's reference implementation and the
// differential tests that pin the production cache (cache.go) to it.
//
// refCache is the implementation the service ran before the cache was
// rebuilt around a chunked index and intrusive per-class LRU lists: one
// flat sorted slice of extents, one container/list for recency, and an
// eviction walk from the list's back. Every operation is O(n), and it
// is kept unchanged (types renamed, nothing else) because its behaviour
// is the specification: hit/miss answers, merge/trim/split results,
// class tags, accounting and eviction order of the production cache
// must equal it step for step, or simulated time moves.

type refCache struct {
	capBlocks int64
	used      int64
	lru       *list.List   // front = most recently used; values are *refExtent
	byStart   []*refExtent // ascending by start; extents are disjoint

	// shares is the per-class reserve floor in blocks (nil = plain
	// unpartitioned LRU); usedBy tracks each class's cached blocks
	// (maintained even with shares nil, so a later setShares partitions
	// the already-cached population correctly).
	shares map[string]int64
	usedBy map[string]int64
}

type refExtent struct {
	start, end int64
	class      string // QoS class that inserted (or last re-merged) it
	elem       *list.Element
}

func newRefCache(capBlocks int64) *refCache {
	if capBlocks <= 0 {
		return nil
	}
	return &refCache{capBlocks: capBlocks, lru: list.New(), usedBy: make(map[string]int64)}
}

// setShares installs the per-class reserve floors; nil reverts to the
// plain unpartitioned LRU. Cached contents survive a reconfiguration —
// only future evictions change policy.
func (c *refCache) setShares(shares map[string]int64) {
	if c == nil {
		return
	}
	c.shares = shares
}

// blocks returns the extent's size.
func (e *refExtent) blocks() int64 { return e.end - e.start }

// search returns the index of the first cached extent with start > x.
func (c *refCache) search(x int64) int {
	return sort.Search(len(c.byStart), func(i int) bool { return c.byStart[i].start > x })
}

// covered reports whether [start, end) lies entirely inside one cached
// extent, refreshing that extent's recency on a hit. Like every other
// method, it is a no-op on the nil cache a zero capacity yields.
func (c *refCache) covered(start, end int64) bool {
	if c == nil {
		return false
	}
	i := c.search(start) - 1
	if i < 0 {
		return false
	}
	if e := c.byStart[i]; e.end >= end {
		c.lru.MoveToFront(e.elem)
		return true
	}
	return false
}

// insertFor adds [start, end) as most-recently-used, tagged with the
// inserting QoS class, merging it with every overlapping or adjacent
// cached extent (the union is re-tagged to the inserting class), then
// evicts extents until the capacity holds — LRU-back with shares nil,
// borrower-first with shares set. Extents larger than the whole cache
// are not cached at all — and when merging would produce such an
// extent, the insert is skipped entirely so the existing cached
// neighbours survive instead of being evicted through.
func (c *refCache) insertFor(start, end int64, class string) {
	if c == nil || end-start > c.capBlocks || end <= start {
		return
	}
	// All cached extents with e.end >= start and e.start <= end merge.
	lo := c.search(start - 1)
	if lo > 0 && c.byStart[lo-1].end >= start {
		lo--
	}
	hi := lo
	for hi < len(c.byStart) && c.byStart[hi].start <= end {
		e := c.byStart[hi]
		if e.start < start {
			start = e.start
		}
		if e.end > end {
			end = e.end
		}
		hi++
	}
	if end-start > c.capBlocks {
		return
	}
	for _, e := range c.byStart[lo:hi] {
		c.used -= e.blocks()
		c.usedBy[e.class] -= e.blocks()
		c.lru.Remove(e.elem)
	}
	merged := &refExtent{start: start, end: end, class: class}
	merged.elem = c.lru.PushFront(merged)
	if hi > lo {
		c.byStart[lo] = merged
		c.byStart = append(c.byStart[:lo+1], c.byStart[hi:]...)
	} else {
		c.byStart = slices.Insert(c.byStart, lo, merged)
	}
	c.used += merged.blocks()
	c.usedBy[class] += merged.blocks()
	for c.used > c.capBlocks {
		victim := c.evictVictim()
		if victim == nil {
			break
		}
		c.lru.Remove(victim.elem)
		i := c.search(victim.start) - 1
		c.byStart = append(c.byStart[:i], c.byStart[i+1:]...)
		c.used -= victim.blocks()
		c.usedBy[victim.class] -= victim.blocks()
	}
}

// evictVictim picks the next extent to evict. With shares nil it is the
// plain LRU back. With shares set it is the least-recently-used extent
// whose class is over its reserve floor — the borrower-first rule: a
// class at or under its reserve is immune, so over-capacity pressure
// always reclaims borrowed blocks before anyone's guaranteed share.
// Since Σ reserves ≤ capacity, an over-capacity cache always holds at
// least one over-reserve extent; the LRU-back fallback only guards the
// impossible empty walk.
func (c *refCache) evictVictim() *refExtent {
	back := c.lru.Back()
	if back == nil {
		return nil
	}
	if c.shares == nil {
		return back.Value.(*refExtent)
	}
	for el := back; el != nil; el = el.Prev() {
		e := el.Value.(*refExtent)
		if c.usedBy[e.class] > c.shares[e.class] {
			return e
		}
	}
	return back.Value.(*refExtent)
}

// invalidate removes [start, end) from the cache: fully covered extents
// are dropped, partially covered ones are trimmed, and an extent
// straddling the range splits in two — every remnant keeps the original
// extent's recency. Only the service loop calls this, on behalf of a
// write op mutating those blocks, before the write's cost is charged.
// Returns the number of cached blocks invalidated.
func (c *refCache) invalidate(start, end int64) int64 {
	if c == nil || end <= start || len(c.byStart) == 0 {
		return 0
	}
	lo := c.search(start) - 1
	if lo < 0 || c.byStart[lo].end <= start {
		lo++
	}
	hi := lo
	var dropped int64
	var remnants []*refExtent
	for hi < len(c.byStart) && c.byStart[hi].start < end {
		e := c.byStart[hi]
		cutLo, cutHi := max(e.start, start), min(e.end, end)
		dropped += cutHi - cutLo
		c.usedBy[e.class] -= cutHi - cutLo
		if e.start < start {
			left := &refExtent{start: e.start, end: start, class: e.class}
			left.elem = c.lru.InsertBefore(left, e.elem)
			remnants = append(remnants, left)
		}
		if e.end > end {
			right := &refExtent{start: end, end: e.end, class: e.class}
			right.elem = c.lru.InsertBefore(right, e.elem)
			remnants = append(remnants, right)
		}
		c.lru.Remove(e.elem)
		hi++
	}
	if hi > lo {
		c.byStart = slices.Replace(c.byStart, lo, hi, remnants...)
		c.used -= dropped
	}
	return dropped
}

// clear drops every cached extent (volume reset, cache reconfiguration).
func (c *refCache) clear() {
	if c == nil {
		return
	}
	c.lru.Init()
	c.byStart = c.byStart[:0]
	c.used = 0
	refClearMap(c.usedBy)
}

func refClearMap(m map[string]int64) {
	for k := range m {
		delete(m, k)
	}
}

// cachedView is one cached extent as the tests see it.
type cachedView struct {
	start, end int64
	class      string
}

func (c *extentCache) view(id extentID) cachedView {
	e := &c.nodes[id]
	return cachedView{e.start, e.end, c.classes[e.class].name}
}

// extents returns the cached extents in start order: the tests' view of
// the index.
func (c *extentCache) extents() []cachedView {
	var out []cachedView
	for _, leaf := range c.idx.leaves {
		for _, en := range leaf {
			out = append(out, c.view(en.id))
		}
	}
	return out
}

// usedBy returns the blocks cached under the named class.
func (c *extentCache) usedBy(name string) int64 {
	for _, cl := range c.classes {
		if cl.name == name {
			return cl.used
		}
	}
	return 0
}

// byRecency returns the cached extents most recently used first: the
// class lists merged by stamp. Equal stamps (split remnants) only occur
// inside one list, whose order the stable sort keeps.
func (c *extentCache) byRecency() []cachedView {
	var ids []extentID
	for _, cl := range c.classes {
		for id := c.nodes[cl.root].next; id != cl.root; id = c.nodes[id].next {
			ids = append(ids, id)
		}
	}
	sort.SliceStable(ids, func(i, j int) bool { return c.nodes[ids[i]].stamp > c.nodes[ids[j]].stamp })
	out := make([]cachedView, len(ids))
	for i, id := range ids {
		out[i] = c.view(id)
	}
	return out
}

// checkCacheInvariants verifies the production cache's structure: the
// index is sorted, disjoint and never adjacent (adjacency merges), its
// leaves obey the fill rules, every indexed extent sits in exactly one
// class list, the lists are stamp-ordered, the block counters match the
// extents, and every arena node is an extent, a list root or free.
func checkCacheInvariants(c *extentCache) error {
	x := &c.idx
	if len(x.mins) != len(x.leaves) {
		return fmt.Errorf("%d leaf minima for %d leaves", len(x.mins), len(x.leaves))
	}
	const (
		indexed = 1 + iota
		linked
		root
		free
	)
	role := make([]byte, len(c.nodes))
	var prev *cachedExtent
	var total int64
	extents := 0
	for l, leaf := range x.leaves {
		if len(leaf) == 0 || len(leaf) > leafMax {
			return fmt.Errorf("leaf %d holds %d entries", l, len(leaf))
		}
		if l > 0 && len(x.leaves[l-1])+len(leaf) <= leafMax/2 {
			return fmt.Errorf("leaves %d and %d (%d + %d entries) should have merged", l-1, l, len(x.leaves[l-1]), len(leaf))
		}
		if x.mins[l] != leaf[0].start {
			return fmt.Errorf("leaf %d: min %d, first key %d", l, x.mins[l], leaf[0].start)
		}
		for _, en := range leaf {
			if en.id <= 0 || int(en.id) >= len(c.nodes) || role[en.id] != 0 {
				return fmt.Errorf("entry %d: node %d is out of range or indexed twice", en.start, en.id)
			}
			e := &c.nodes[en.id]
			if en.start != e.start || e.start >= e.end {
				return fmt.Errorf("entry key %d for extent [%d,%d)", en.start, e.start, e.end)
			}
			if prev != nil && prev.end >= e.start {
				return fmt.Errorf("[%d,%d) then [%d,%d): not disjoint, sorted and apart", prev.start, prev.end, e.start, e.end)
			}
			role[en.id] = indexed
			total += e.blocks()
			extents++
			prev = e
		}
	}
	if total != c.used || c.used > c.capBlocks {
		return fmt.Errorf("extents hold %d blocks, used says %d, capacity %d", total, c.used, c.capBlocks)
	}
	for ci, cl := range c.classes {
		if role[cl.root] != 0 {
			return fmt.Errorf("class %q: root node %d is in use otherwise", cl.name, cl.root)
		}
		role[cl.root] = root
		var sum int64
		for at, id := cl.root, c.nodes[cl.root].next; id != cl.root; at, id = id, c.nodes[id].next {
			e := &c.nodes[id]
			if e.prev != at || role[id] != indexed || int(e.class) != ci {
				return fmt.Errorf("class %q: node %d [%d,%d) is mislinked, not indexed, listed twice or of class %d", cl.name, id, e.start, e.end, e.class)
			}
			if at != cl.root && c.nodes[at].stamp < e.stamp || e.stamp > c.clock {
				return fmt.Errorf("class %q: stamp %d out of order at [%d,%d)", cl.name, e.stamp, e.start, e.end)
			}
			role[id] = linked
			sum += e.blocks()
			extents--
		}
		if back := c.nodes[cl.root].prev; c.nodes[back].next != cl.root {
			return fmt.Errorf("class %q: the root's prev %d is not the list's back", cl.name, back)
		}
		if sum != cl.used {
			return fmt.Errorf("class %q lists %d blocks, used says %d", cl.name, sum, cl.used)
		}
		if cl.reserve != c.shares[cl.name] {
			return fmt.Errorf("class %q: reserve %d, share %d", cl.name, cl.reserve, c.shares[cl.name])
		}
	}
	if extents != 0 {
		return fmt.Errorf("%d indexed extents are in no class list", extents)
	}
	for id := c.free; id != 0; id = c.nodes[id].next {
		if role[id] != 0 {
			return fmt.Errorf("free list holds node %d, which is in use or listed twice", id)
		}
		role[id] = free
	}
	for id := 1; id < len(role); id++ {
		if role[id] == 0 {
			return fmt.Errorf("node %d is neither an extent, a root nor free", id)
		}
	}
	return nil
}

// compareCaches checks the production cache against the reference:
// counters always; with full set, also the extents in start order with
// their class tags, the complete recency order, and the invariants.
func compareCaches(ref *refCache, c *extentCache, full bool) error {
	if ref.used != c.used {
		return fmt.Errorf("used %d, reference %d", c.used, ref.used)
	}
	for _, cl := range c.classes {
		if cl.used != ref.usedBy[cl.name] {
			return fmt.Errorf("class %q uses %d, reference %d", cl.name, cl.used, ref.usedBy[cl.name])
		}
	}
	for name, n := range ref.usedBy {
		if n != c.usedBy(name) {
			return fmt.Errorf("class %q uses %d, reference %d", name, c.usedBy(name), n)
		}
	}
	if !full {
		return nil
	}
	same := func(what string, got []cachedView, want func(i int) *refExtent, n int) error {
		if len(got) != n {
			return fmt.Errorf("%s: %d extents, reference %d", what, len(got), n)
		}
		for i, e := range got {
			if r := want(i); e != (cachedView{r.start, r.end, r.class}) {
				return fmt.Errorf("%s: extent %d is %+v, reference [%d,%d) %q", what, i, e, r.start, r.end, r.class)
			}
		}
		return nil
	}
	if err := same("start order", c.extents(), func(i int) *refExtent { return ref.byStart[i] }, len(ref.byStart)); err != nil {
		return err
	}
	el := ref.lru.Front()
	nextRef := func(int) *refExtent {
		r := el.Value.(*refExtent)
		el = el.Next()
		return r
	}
	if err := same("recency order", c.byRecency(), nextRef, ref.lru.Len()); err != nil {
		return err
	}
	return checkCacheInvariants(c)
}

// A cache script is a byte string both the fuzzer and the tests feed to
// runCacheScript. Bytes 0–1 are the capacity minus one, little endian
// (1 … 1<<16 blocks). Every following four bytes are one operation:
//
//	byte 0   bits 0–2 the operation, bits 3–4 the class (index into
//	         scriptClasses), bits 5–7 a shift
//	byte 1–2 the start block, little endian
//	byte 3   a count n
//
// Operations 0, 1 and 7: insertFor [start, start+(1+n)<<shift) — 7 with
// n = 255 is clear instead. 2, 3: covered, same range. 4: invalidate,
// same range. 5: setShares from weights byte1&3, byte2&3, byte3&3 for
// classes a, b, c (weight 0 leaves a class unregistered, all 0 is nil
// shares). 6: insertFor 1+n single blocks start, start+stride, … with
// stride 2+shift, which grows a many-extent population from few bytes.
type cacheScript []byte

var scriptClasses = [4]string{"", "a", "b", "c"}

func newCacheScript(capBlocks int64) cacheScript {
	return cacheScript{byte(capBlocks - 1), byte((capBlocks - 1) >> 8)}
}

func (s cacheScript) op(code int, class string, shift int, start, n int64) cacheScript {
	ci := slices.Index(scriptClasses[:], class)
	return append(s, byte(code|ci<<3|shift<<5), byte(start), byte(start>>8), byte(n))
}

// ranged encodes an operation over [start, end): the length becomes
// (1+n)<<shift, so lengths over 256 must be multiples of a power of two.
func (s cacheScript) ranged(code int, class string, start, end int64) cacheScript {
	n, shift := end-start, 0
	for n > 256 {
		if n&1 != 0 || shift == 7 {
			panic(fmt.Sprintf("length %d is not encodable", end-start))
		}
		n, shift = n>>1, shift+1
	}
	return s.op(code, class, shift, start, n-1)
}

func (s cacheScript) insert(start, end int64, class string) cacheScript {
	return s.ranged(0, class, start, end)
}
func (s cacheScript) covered(start, end int64) cacheScript    { return s.ranged(2, "", start, end) }
func (s cacheScript) invalidate(start, end int64) cacheScript { return s.ranged(4, "", start, end) }
func (s cacheScript) shares(a, b, c int64) cacheScript        { return s.op(5, "", 0, a|b<<8, c) }
func (s cacheScript) clear() cacheScript                      { return s.op(7, "", 0, 0, 255) }
func (s cacheScript) stripe(start, count, stride int64, class string) cacheScript {
	return s.op(6, class, int(stride-2), start, count-1)
}

// runCacheScript replays a script on the production cache and on the
// reference side by side and fails on the first divergence: a different
// hit/miss or invalidated-blocks answer, different counters, and — after
// every step while the population is small, every 32nd step beyond —
// different extents, class tags or recency order, or a broken invariant.
// At the end both caches are drained victim by victim, which compares
// the eviction order under the shares then in force.
func runCacheScript(t testing.TB, script []byte) {
	if len(script) < 2 {
		return
	}
	capBlocks := 1 + int64(script[0]) + int64(script[1])<<8
	ref, c := newRefCache(capBlocks), newExtentCache(capBlocks)
	step := 0
	for ops := script[2:]; len(ops) >= 4; ops = ops[4:] {
		code, class, shift := ops[0]&7, scriptClasses[ops[0]>>3&3], int64(ops[0]>>5)
		start, n := int64(ops[1])+int64(ops[2])<<8, int64(ops[3])
		end := start + (1+n)<<shift
		what := func() string {
			return fmt.Sprintf("step %d: op %d class %q [%d,%d)", step-1, code, class, start, end)
		}
		step++
		switch {
		case code == 7 && n == 255:
			ref.clear()
			c.clear()
		case code <= 1 || code == 7:
			ref.insertFor(start, end, class)
			c.insertFor(start, end, class)
		case code <= 3:
			if got, want := c.covered(start, end), ref.covered(start, end); got != want {
				t.Fatalf("%s: covered = %v, reference %v", what(), got, want)
			}
		case code == 4:
			if got, want := c.invalidate(start, end), ref.invalidate(start, end); got != want {
				t.Fatalf("%s: invalidated %d blocks, reference %d", what(), got, want)
			}
		case code == 5:
			ref.setShares(scriptShares(capBlocks, ops[1:4]))
			c.setShares(scriptShares(capBlocks, ops[1:4]))
		case code == 6:
			for i := int64(0); i <= n; i++ {
				at := start + i*(2+shift)
				ref.insertFor(at, at+1, class)
				c.insertFor(at, at+1, class)
			}
		}
		if err := compareCaches(ref, c, len(ref.byStart) < 300 || step%32 == 0); err != nil {
			t.Fatalf("%s: %v", what(), err)
		}
	}
	if err := compareCaches(ref, c, true); err != nil {
		t.Fatalf("after %d steps: %v", step, err)
	}
	for ref.used > 0 {
		want := ref.evictVictim()
		ref.lru.Remove(want.elem)
		i := ref.search(want.start) - 1
		ref.byStart = append(ref.byStart[:i], ref.byStart[i+1:]...)
		ref.used -= want.blocks()
		ref.usedBy[want.class] -= want.blocks()

		got := c.evictVictim()
		if got == 0 || c.view(got) != (cachedView{want.start, want.end, want.class}) {
			t.Fatalf("drain: victim %d, reference [%d,%d) %q", got, want.start, want.end, want.class)
		}
		c.idx.remove(c.idx.floor(c.nodes[got].start), 1)
		c.drop(got)
	}
	if err := compareCaches(ref, c, true); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// scriptShares turns three weight bytes into a setShares argument the
// way cacheShares does: capacity × weight / Σweights per registered
// class, nil when no class is registered.
func scriptShares(capBlocks int64, w []byte) map[string]int64 {
	sum := int64(w[0]&3) + int64(w[1]&3) + int64(w[2]&3)
	if sum == 0 {
		return nil
	}
	shares := map[string]int64{}
	for i, name := range scriptClasses[1:] {
		if wt := int64(w[i] & 3); wt > 0 {
			shares[name] = capBlocks * wt / sum
		}
	}
	return shares
}

// cacheScenarioScripts are the hand-written scenarios of cache_test.go,
// cache_qos_test.go and service_test.go as scripts: the differential
// test replays them, and they seed the fuzzer's corpus.
func cacheScenarioScripts() []cacheScript {
	return []cacheScript{
		// TestExtentCacheEviction: LRU bound, oversized insert, merging,
		// oversized merge skipped.
		newCacheScript(100).insert(0, 40, "").insert(100, 140, "").insert(200, 240, "").
			covered(0, 40).insert(1000, 2000, "").covered(1000, 1001),
		newCacheScript(200).insert(100, 140, "").insert(200, 240, "").insert(140, 160, "").
			insert(150, 200, "").covered(100, 240),
		newCacheScript(100).insert(0, 60, "").insert(100, 140, "").insert(60, 100, "").covered(60, 100),
		// TestExtentCacheInvalidate / …Boundaries / …SplitKeepsStructure.
		newCacheScript(1000).insert(100, 200, "").insert(300, 400, "").insert(500, 600, "").
			invalidate(300, 400).invalidate(130, 150).covered(125, 155).invalidate(190, 520).
			invalidate(0, 100).invalidate(200, 300).invalidate(100, 150).invalidate(180, 200),
		newCacheScript(1000).insert(100, 300, "").invalidate(180, 220).invalidate(120, 140).covered(140, 180),
		// TestExtentCacheEvictionOrderAfterSplit.
		newCacheScript(120).insert(0, 40, "").insert(100, 140, "").insert(200, 240, "").
			invalidate(10, 30).covered(100, 140).insert(300, 340, ""),
		// TestExtentCacheBorrowThenReclaim, …ReserveFloor.
		newCacheScript(100).shares(1, 1, 0).insert(0, 80, "a").insert(100, 140, "b").
			insert(200, 250, "a").insert(300, 310, "b").insert(400, 450, "b"),
		newCacheScript(100).shares(2, 3, 0).insert(0, 40, "a").insert(1000, 1030, "b").
			insert(1040, 1070, "b").insert(1080, 1110, "b").insert(1120, 1150, "b"),
		// TestExtentCacheNilSharesPlainLRU, …MergeRetags, …InvalidatePartitioned.
		newCacheScript(100).insert(0, 40, "b").insert(100, 160, "a").insert(200, 250, "b"),
		newCacheScript(1000).shares(1, 1, 0).insert(0, 50, "a").insert(50, 100, "b").
			insert(200, 300, "b").invalidate(40, 60).invalidate(200, 250).invalidate(0, 1000),
		// TestExtentCacheSetSharesOnExisting, …ClearResetsClasses.
		newCacheScript(100).insert(0, 60, "c").insert(100, 130, "a").shares(1, 0, 0).
			insert(200, 240, "a").shares(0, 0, 0).insert(300, 400, "b"),
		newCacheScript(100).shares(1, 0, 0).insert(0, 40, "a").insert(50, 60, "b").clear().insert(0, 10, "a"),
		// Populations that span many index leaves, cut by wide ranges.
		newCacheScript(1<<16).stripe(0, 256, 2, "").stripe(600, 256, 3, "a").stripe(2000, 256, 2, "b").
			stripe(3000, 256, 5, "").invalidate(100, 2148).insert(2500, 3012, "c").invalidate(0, 8192),
		newCacheScript(300).shares(1, 2, 0).stripe(0, 256, 2, "a").stripe(1000, 256, 2, "b").
			stripe(2000, 256, 2, "a").covered(1000, 1001).stripe(3000, 200, 3, "b"),
	}
}

// randomCacheScript draws a script of the given number of operations.
// span bounds the start blocks (a small span makes ranges collide and
// merge, a large one keeps many extents apart), maxShift the range
// lengths, and stripes the share of bulk single-block inserts.
func randomCacheScript(rng *rand.Rand, capBlocks int64, ops int, span int64, maxShift int, stripes float64) cacheScript {
	s := newCacheScript(capBlocks)
	for i := 0; i < ops; i++ {
		class := scriptClasses[rng.Intn(4)]
		start, n, shift := rng.Int63n(span), rng.Int63n(256), rng.Intn(maxShift+1)
		switch p := rng.Float64(); {
		case p < stripes:
			s = s.op(6, class, rng.Intn(4), start, n)
		case p < 0.45:
			s = s.op(0, class, shift, start, n)
		case p < 0.75:
			s = s.op(2, class, shift, start, n)
		case p < 0.93:
			s = s.op(4, class, shift, start, n)
		case p < 0.995:
			s = s.shares(rng.Int63n(4), rng.Int63n(4), rng.Int63n(4))
		default:
			s = s.clear()
		}
	}
	return s
}

// TestExtentCacheMatchesReference replays the hand-written scenarios
// and random scripts — tiny to 1<<16-block capacities, colliding and
// sparse populations, zero to three registered classes — on both
// implementations.
func TestExtentCacheMatchesReference(t *testing.T) {
	for i, s := range cacheScenarioScripts() {
		t.Run(fmt.Sprintf("scenario%d", i), func(t *testing.T) { runCacheScript(t, s) })
	}
	rounds := 12
	if testing.Short() {
		rounds = 3
	}
	regimes := []struct {
		name     string
		capacity func(*rand.Rand) int64
		ops      int
		span     int64
		maxShift int
		stripes  float64
	}{
		{"tiny", func(r *rand.Rand) int64 { return 1 + r.Int63n(64) }, 1500, 400, 0, 0},
		{"colliding", func(r *rand.Rand) int64 { return 100 + r.Int63n(2000) }, 1500, 3000, 2, 0.02},
		{"evicting-stripes", func(r *rand.Rand) int64 { return 600 + r.Int63n(3000) }, 800, 1 << 16, 1, 0.3},
		{"many-leaves", func(*rand.Rand) int64 { return 1 << 16 }, 800, 1 << 16, 7, 0.35},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(rounds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				runCacheScript(t, randomCacheScript(rng, rg.capacity(rng), rg.ops, rg.span, rg.maxShift, rg.stripes))
			}
		})
	}
}

// FuzzExtentCache lets the fuzzer write the scripts, cut at 1024
// operations so that one execution stays in the milliseconds.
func FuzzExtentCache(f *testing.F) {
	for _, s := range cacheScenarioScripts() {
		f.Add([]byte(s))
	}
	rng := rand.New(rand.NewSource(1))
	f.Add([]byte(randomCacheScript(rng, 500, 200, 2000, 2, 0.1)))
	f.Add([]byte(randomCacheScript(rng, 1<<16, 200, 1<<16, 7, 0.3)))
	f.Fuzz(func(t *testing.T, script []byte) { runCacheScript(t, script[:min(len(script), 2+4*1024)]) })
}
