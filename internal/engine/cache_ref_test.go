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
// rebuilt around an arena, an ordered index and an intrusive LRU list:
// one flat sorted slice of extents, one container/list for recency, and
// eviction from the list's back. Every operation is O(n), and it is
// kept (types renamed) because its behaviour is the specification:
// hit/miss answers, merge/trim/split results, accounting and eviction
// order of the production cache must equal it step for step, or
// simulated time moves.

type refCache struct {
	capBlocks int64
	used      int64
	lru       *list.List   // front = most recently used; values are *refExtent
	byStart   []*refExtent // ascending by start; extents are disjoint
}

type refExtent struct {
	start, end int64
	elem       *list.Element
}

func newRefCache(capBlocks int64) *refCache {
	if capBlocks <= 0 {
		return nil
	}
	return &refCache{capBlocks: capBlocks, lru: list.New()}
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

// insert adds [start, end) as most-recently-used, merging it with every
// overlapping or adjacent cached extent, then evicts from the LRU back
// until the capacity holds. Extents larger than the whole cache are not
// cached at all — and when merging would produce such an extent, the
// insert is skipped entirely so the existing cached neighbours survive
// instead of being evicted through.
func (c *refCache) insert(start, end int64) {
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
		c.lru.Remove(e.elem)
	}
	merged := &refExtent{start: start, end: end}
	merged.elem = c.lru.PushFront(merged)
	if hi > lo {
		c.byStart[lo] = merged
		c.byStart = append(c.byStart[:lo+1], c.byStart[hi:]...)
	} else {
		c.byStart = slices.Insert(c.byStart, lo, merged)
	}
	c.used += merged.blocks()
	for c.used > c.capBlocks {
		c.evict()
	}
}

// evict drops the LRU back and returns it.
func (c *refCache) evict() *refExtent {
	victim := c.lru.Remove(c.lru.Back()).(*refExtent)
	i := c.search(victim.start) - 1
	c.byStart = append(c.byStart[:i], c.byStart[i+1:]...)
	c.used -= victim.blocks()
	return victim
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
		if e.start < start {
			left := &refExtent{start: e.start, end: start}
			left.elem = c.lru.InsertBefore(left, e.elem)
			remnants = append(remnants, left)
		}
		if e.end > end {
			right := &refExtent{start: end, end: e.end}
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

// cachedView is one cached extent as the tests see it.
type cachedView struct{ start, end int64 }

func (c *extentCache) view(id extentID) cachedView {
	return cachedView{c.nodes[id].start, c.nodes[id].end}
}

// extents returns the cached extents in start order: the tests' view of
// the hi links.
func (c *extentCache) extents() []cachedView {
	var out []cachedView
	for id := c.nodes[0].hi; id != 0; id = c.nodes[id].hi {
		out = append(out, c.view(id))
	}
	return out
}

// byRecency returns the cached extents most recently used first: the
// LRU list from the sentinel's next.
func (c *extentCache) byRecency() []cachedView {
	var out []cachedView
	for id := c.nodes[0].next; id != 0; id = c.nodes[id].next {
		out = append(out, c.view(id))
	}
	return out
}

// checkCacheInvariants verifies the production cache's structure: the
// lo/hi links mirror each other and give extents that are sorted,
// disjoint and never adjacent (adjacency merges); heads[b] is exactly
// the first extent that starts in bucket b, and the occ and sum bits
// agree with heads; every extent is linked exactly once into the LRU
// list, whose sentinel's prev is its back; the block counter matches
// the extents; and every arena node past the sentinel is an extent or
// free.
func checkCacheInvariants(c *extentCache) error {
	const (
		ordered = 1 + iota
		linked
		free
	)
	role := make([]byte, len(c.nodes))
	var total int64
	extents, firsts := 0, 0
	at := extentID(0)
	for id := c.nodes[0].hi; id != 0; at, id = id, c.nodes[id].hi {
		if id < 0 || int(id) >= len(c.nodes) || role[id] != 0 {
			return fmt.Errorf("start order: node %d is out of range or listed twice", id)
		}
		e := &c.nodes[id]
		if e.lo != at {
			return fmt.Errorf("node %d [%d,%d): lo %d, but %d links to it", id, e.start, e.end, e.lo, at)
		}
		if e.start < 0 || e.start >= e.end {
			return fmt.Errorf("node %d holds [%d,%d)", id, e.start, e.end)
		}
		if p := &c.nodes[at]; at != 0 && p.end >= e.start {
			return fmt.Errorf("[%d,%d) then [%d,%d): not disjoint, sorted and apart", p.start, p.end, e.start, e.end)
		}
		b := bucketOf(e.start)
		if b >= len(c.heads) {
			return fmt.Errorf("[%d,%d) starts in bucket %d past the table's %d", e.start, e.end, b, len(c.heads))
		}
		if isFirst := at == 0 || bucketOf(c.nodes[at].start) != b; isFirst != (c.heads[b] == id) {
			return fmt.Errorf("bucket %d: head %d, but node %d [%d,%d) is first: %v", b, c.heads[b], id, e.start, e.end, isFirst)
		} else if isFirst {
			firsts++
		}
		role[id] = ordered
		total += e.blocks()
		extents++
	}
	if c.nodes[0].lo != at {
		return fmt.Errorf("the sentinel's lo %d is not the last extent %d", c.nodes[0].lo, at)
	}
	if err := checkBucketBits(c); err != nil {
		return err
	}
	heads := 0
	for _, h := range c.heads {
		if h != 0 {
			heads++
		}
	}
	if heads != firsts {
		return fmt.Errorf("%d bucket heads for %d occupied buckets", heads, firsts)
	}
	if total != c.used || c.used > c.capBlocks {
		return fmt.Errorf("extents hold %d blocks, used says %d, capacity %d", total, c.used, c.capBlocks)
	}
	for at, id := extentID(0), c.nodes[0].next; id != 0; at, id = id, c.nodes[id].next {
		if e := &c.nodes[id]; e.prev != at || role[id] != ordered {
			return fmt.Errorf("node %d [%d,%d) is mislinked, not in the start order or listed twice", id, e.start, e.end)
		}
		role[id] = linked
		extents--
	}
	if back := c.nodes[0].prev; c.nodes[back].next != 0 {
		return fmt.Errorf("the sentinel's prev %d is not the list's back", back)
	}
	if extents != 0 {
		return fmt.Errorf("%d extents in the start order are not in the LRU list", extents)
	}
	for id := c.free; id != 0; id = c.nodes[id].next {
		if role[id] != 0 {
			return fmt.Errorf("free list holds node %d, which is in use or listed twice", id)
		}
		role[id] = free
	}
	for id := 1; id < len(role); id++ {
		if role[id] == 0 {
			return fmt.Errorf("node %d is neither an extent nor free", id)
		}
	}
	return nil
}

// checkBucketBits checks that occ has one bit per bucket, set exactly
// where heads has an extent, and sum one bit per word of occ, set
// exactly where that word is not zero.
func checkBucketBits(c *extentCache) error {
	if len(c.occ) != (len(c.heads)+63)/64 || len(c.sum) != (len(c.occ)+63)/64 {
		return fmt.Errorf("table of %d heads has %d occ and %d sum words", len(c.heads), len(c.occ), len(c.sum))
	}
	for b := 0; b < 64*len(c.occ); b++ {
		if set, want := c.occ[b>>6]>>(b&63)&1 == 1, b < len(c.heads) && c.heads[b] != 0; set != want {
			return fmt.Errorf("occ bit %d is %v, bucket head says %v", b, set, want)
		}
	}
	for w := 0; w < 64*len(c.sum); w++ {
		if set, want := c.sum[w>>6]>>(w&63)&1 == 1, w < len(c.occ) && c.occ[w] != 0; set != want {
			return fmt.Errorf("sum bit %d is %v, occ word says %v", w, set, want)
		}
	}
	return nil
}

// compareCaches checks the production cache against the reference: the
// block counter always; with full set, also the extents in start order,
// the complete recency order, and the invariants.
func compareCaches(ref *refCache, c *extentCache, full bool) error {
	if ref.used != c.used {
		return fmt.Errorf("used %d, reference %d", c.used, ref.used)
	}
	if !full {
		return nil
	}
	same := func(what string, got []cachedView, want func(i int) *refExtent, n int) error {
		if len(got) != n {
			return fmt.Errorf("%s: %d extents, reference %d", what, len(got), n)
		}
		for i, e := range got {
			if r := want(i); e != (cachedView{r.start, r.end}) {
				return fmt.Errorf("%s: extent %d is %+v, reference [%d,%d)", what, i, e, r.start, r.end)
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
//	byte 0   bits 0–2 the operation, bits 3–4 ignored, bits 5–7 a shift
//	byte 1–2 the start block, little endian
//	byte 3   a count n
//
// Operations 0, 1 and 7: insert [start, start+(1+n)<<shift). 2, 3:
// covered, same range. 4: invalidate, same range. 5: both caches start
// over empty. 6: insert 1+n single blocks start, start+stride, … with
// stride 2+shift, which grows a many-extent population from few bytes.
type cacheScript []byte

func newCacheScript(capBlocks int64) cacheScript {
	return cacheScript{byte(capBlocks - 1), byte((capBlocks - 1) >> 8)}
}

func (s cacheScript) op(code, shift int, start, n int64) cacheScript {
	return append(s, byte(code|shift<<5), byte(start), byte(start>>8), byte(n))
}

// ranged encodes an operation over [start, end): the length becomes
// (1+n)<<shift, so lengths over 256 must be multiples of a power of two.
func (s cacheScript) ranged(code int, start, end int64) cacheScript {
	n, shift := end-start, 0
	for n > 256 {
		if n&1 != 0 || shift == 7 {
			panic(fmt.Sprintf("length %d is not encodable", end-start))
		}
		n, shift = n>>1, shift+1
	}
	return s.op(code, shift, start, n-1)
}

func (s cacheScript) insert(start, end int64) cacheScript     { return s.ranged(0, start, end) }
func (s cacheScript) covered(start, end int64) cacheScript    { return s.ranged(2, start, end) }
func (s cacheScript) invalidate(start, end int64) cacheScript { return s.ranged(4, start, end) }
func (s cacheScript) restart() cacheScript                    { return s.op(5, 0, 0, 0) }
func (s cacheScript) stripe(start, count, stride int64) cacheScript {
	return s.op(6, int(stride-2), start, count-1)
}

// runCacheScript replays a script on the production cache and on the
// reference side by side and fails on the first divergence: a different
// hit/miss or invalidated-blocks answer, a different block counter, and
// — after every step while the population is small, every 32nd step
// beyond — different extents or recency order, or a broken invariant.
// At the end both caches are drained victim by victim, which compares
// the eviction order.
func runCacheScript(t testing.TB, script []byte) {
	if len(script) < 2 {
		return
	}
	capBlocks := 1 + int64(script[0]) + int64(script[1])<<8
	ref, c := newRefCache(capBlocks), newExtentCache(capBlocks)
	step := 0
	for ops := script[2:]; len(ops) >= 4; ops = ops[4:] {
		code, shift := ops[0]&7, int64(ops[0]>>5)
		start, n := int64(ops[1])+int64(ops[2])<<8, int64(ops[3])
		end := start + (1+n)<<shift
		what := func() string {
			return fmt.Sprintf("step %d: op %d [%d,%d)", step-1, code, start, end)
		}
		step++
		switch {
		case code <= 1 || code == 7:
			ref.insert(start, end)
			c.insert(start, end)
		case code <= 3:
			if got, want := c.covered(start, end), ref.covered(start, end); got != want {
				t.Fatalf("%s: covered = %v, reference %v", what(), got, want)
			}
		case code == 4:
			if got, want := c.invalidate(start, end), ref.invalidate(start, end); got != want {
				t.Fatalf("%s: invalidated %d blocks, reference %d", what(), got, want)
			}
		case code == 5:
			ref, c = newRefCache(capBlocks), newExtentCache(capBlocks)
		case code == 6:
			for i := int64(0); i <= n; i++ {
				at := start + i*(2+shift)
				ref.insert(at, at+1)
				c.insert(at, at+1)
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
		want := ref.evict()
		got := c.nodes[0].prev
		if got == 0 || c.view(got) != (cachedView{want.start, want.end}) {
			t.Fatalf("drain: victim %d, reference [%d,%d)", got, want.start, want.end)
		}
		c.leave(got)
		c.drop(got)
	}
	if err := compareCaches(ref, c, true); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// cacheScenarioScripts are the hand-written scenarios of cache_test.go,
// cache_qos_test.go and service_test.go as scripts: the differential
// test replays them, and they seed the fuzzer's corpus.
func cacheScenarioScripts() []cacheScript {
	return []cacheScript{
		// TestExtentCacheEviction: LRU bound, oversized insert, merging,
		// oversized merge skipped.
		newCacheScript(100).insert(0, 40).insert(100, 140).insert(200, 240).
			covered(0, 40).insert(1000, 2000).covered(1000, 1001),
		newCacheScript(200).insert(100, 140).insert(200, 240).insert(140, 160).
			insert(150, 200).covered(100, 240),
		newCacheScript(100).insert(0, 60).insert(100, 140).insert(60, 100).covered(60, 100),
		// TestExtentCacheInvalidate / …Boundaries / …SplitKeepsStructure.
		newCacheScript(1000).insert(100, 200).insert(300, 400).insert(500, 600).
			invalidate(300, 400).invalidate(130, 150).covered(125, 155).invalidate(190, 520).
			invalidate(0, 100).invalidate(200, 300).invalidate(100, 150).invalidate(180, 200),
		newCacheScript(1000).insert(100, 300).invalidate(180, 220).invalidate(120, 140).covered(140, 180),
		// TestExtentCacheEvictionOrderAfterSplit.
		newCacheScript(120).insert(0, 40).insert(100, 140).insert(200, 240).
			invalidate(10, 30).covered(100, 140).insert(300, 340),
		// Overflows by one and by several extents, after a start over.
		newCacheScript(100).restart().insert(0, 80).insert(100, 140).
			insert(200, 250).insert(300, 310).insert(400, 450),
		newCacheScript(100).restart().insert(0, 40).insert(1000, 1030).
			insert(1040, 1070).insert(1080, 1110).insert(1120, 1150),
		// TestExtentCacheNilSharesPlainLRU, …MergeRetags, …InvalidatePartitioned.
		newCacheScript(100).insert(0, 40).insert(100, 160).insert(200, 250),
		newCacheScript(1000).restart().insert(0, 50).insert(50, 100).
			insert(200, 300).invalidate(40, 60).invalidate(200, 250).invalidate(0, 1000),
		// One overflow that takes the back and the extent after it; then
		// a cache emptied by one wide invalidation and refilled.
		newCacheScript(100).restart().insert(0, 30).insert(100, 160).
			insert(200, 250),
		newCacheScript(100).restart().insert(0, 40).insert(50, 60).invalidate(0, 100).insert(0, 10),
		// Populations that pack 128 extents into a bucket and span
		// many buckets, cut by wide ranges.
		newCacheScript(1<<16).stripe(0, 256, 2).stripe(600, 256, 3).stripe(2000, 256, 2).
			stripe(3000, 256, 5).invalidate(100, 2148).insert(2500, 3012).invalidate(0, 8192),
		newCacheScript(300).restart().stripe(0, 256, 2).stripe(1000, 256, 2).
			stripe(2000, 256, 2).covered(1000, 1001).stripe(3000, 200, 3),
		// A trim that moves a start into the next bucket, ahead of that
		// bucket's first extent; then a wide cut that empties a whole
		// word of occ.
		newCacheScript(1000).insert(200, 270).insert(300, 310).insert(520, 530).
			invalidate(190, 260).covered(260, 270).covered(255, 256).covered(300, 301).
			invalidate(250, 305).covered(305, 310).insert(20000, 20010).
			invalidate(0, 1000).covered(50, 51).covered(20000, 20010),
		// A merge that moves a start back into the previous bucket,
		// behind its first extent, while the old bucket's first passes
		// on; then one into an empty bucket.
		newCacheScript(1000).insert(100, 110).insert(260, 300).insert(400, 410).
			insert(240, 262).covered(240, 300).covered(100, 110).covered(400, 410).
			restart().insert(300, 310).insert(250, 300).covered(250, 310).covered(249, 250),
		// An insert far beyond the table, probes past it and between.
		newCacheScript(1000).insert(10, 20).covered(60000, 60001).insert(60000, 60100).
			covered(60050, 60060).covered(30000, 30001).covered(65535, 65536).
			invalidate(59000, 60160).covered(10, 20).covered(60000, 60001),
	}
}

// randomCacheScript draws a script of the given number of operations.
// span bounds the start blocks (a small span makes ranges collide and
// merge, a large one keeps many extents apart), maxShift the range
// lengths, and stripes the share of bulk single-block inserts.
func randomCacheScript(rng *rand.Rand, capBlocks int64, ops int, span int64, maxShift int, stripes float64) cacheScript {
	s := newCacheScript(capBlocks)
	for i := 0; i < ops; i++ {
		start, n, shift := rng.Int63n(span), rng.Int63n(256), rng.Intn(maxShift+1)
		switch p := rng.Float64(); {
		case p < stripes:
			s = s.op(6, rng.Intn(4), start, n)
		case p < 0.45:
			s = s.op(0, shift, start, n)
		case p < 0.75:
			s = s.op(2, shift, start, n)
		default:
			s = s.op(4, shift, start, n)
		}
	}
	return s
}

// TestExtentCacheMatchesReference replays the hand-written scenarios
// and random scripts — tiny to 1<<16-block capacities, colliding and
// sparse populations — on both implementations.
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
		{"many-buckets", func(*rand.Rand) int64 { return 1 << 16 }, 800, 1 << 16, 7, 0.35},
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

// TestExtentCacheFarApart spreads a few extents over many words of
// sum, which the scripts' 16-bit starts never reach, so that a probe's
// search for the next occupied bucket crosses words of occ and of sum.
// Inserts, probes into and between extents, and cuts up to an eighth of
// the span wide run on both implementations.
func TestExtentCacheFarApart(t *testing.T) {
	const span = 1 << 26 // 1<<18 buckets: 4096 words of occ, 64 of sum
	ref, c := newRefCache(1<<10), newExtentCache(1<<10)
	rng := rand.New(rand.NewSource(1))
	var starts []int64
	for step := 0; step < 3000; step++ {
		start := rng.Int63n(span)
		end := start + 1 + rng.Int63n(64)
		switch rng.Intn(5) {
		case 0, 1:
			ref.insert(start, end)
			c.insert(start, end)
			starts = append(starts, start)
		case 2:
			if len(starts) > 0 {
				start = starts[rng.Intn(len(starts))] + rng.Int63n(4)
			}
			fallthrough
		case 3:
			if got, want := c.covered(start, start+1), ref.covered(start, start+1); got != want {
				t.Fatalf("step %d: covered(%d) = %v, reference %v", step, start, got, want)
			}
		case 4:
			end = start + 1 + rng.Int63n(span/8)
			if got, want := c.invalidate(start, end), ref.invalidate(start, end); got != want {
				t.Fatalf("step %d: invalidate [%d,%d) = %d, reference %d", step, start, end, got, want)
			}
		}
		if err := compareCaches(ref, c, step%200 == 0); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if err := compareCaches(ref, c, true); err != nil {
		t.Fatal(err)
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
