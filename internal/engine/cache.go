package engine

import (
	"math/bits"
	"slices"
)

// extentCache is the service's shared read cache: an LRU over disjoint
// block extents [start, end) in volume LBN space, capacity-bounded in
// blocks. A request hits only when one cached extent fully covers it —
// a partial overlap still costs the full disk access, exactly as a
// block cache that refuses partial reads would behave. Extents inserted
// after a serve are unioned with any cached neighbours (overlapping or
// exactly adjacent), so repeated overlapping queries converge onto a
// few large extents instead of fragmenting.
//
// The cache is owned by the service loop and needs no locking of its
// own.
//
// # Structure and cost
//
// Three pieces, none of whose per-operation cost grows with the number
// n of cached extents:
//
//   - nodes, the arena every cachedExtent lives in. Extents refer to
//     each other and are referred to by index (extentID), and evicted
//     ones are recycled through a free list, so a cached extent costs
//     no allocation of its own and the whole population is one
//     pointer-free block the garbage collector neither scans nor puts
//     write barriers on.
//   - the start order: each extent links to its neighbours by start
//     block (lo, hi), and a bucket table says where to enter the list.
//     heads[b] is the first extent that starts in bucket b, the blocks
//     [b<<bucketShift, (b+1)<<bucketShift); occ marks the occupied
//     buckets and sum the non-zero words of occ, so the next occupied
//     bucket is a few word scans away. Cached extents are disjoint and
//     never adjacent, so at most 128 of them start in one bucket.
//   - one intrusive LRU list whose sentinel is nodes[0]: the prev/next
//     links live inside cachedExtent, so linking, unlinking,
//     move-to-front and eviction from the back are O(1).
//
// A probe reads one bucket head and walks at most one bucket. insert
// and invalidate cost that probe plus O(k) for k extents merged or cut
// (each of which was paid for by its own insert); an eviction unlinks
// its victim from both lists, with no search. The arena grows to the
// largest population seen and the table to the highest bucket that
// ever held a start (4 bytes per 256 blocks); both live as long as the
// cache.
type extentCache struct {
	capBlocks int64
	used      int64

	// nodes[0] is the sentinel of both lists: its next is the most
	// recently used extent and its prev the least, its hi the first
	// extent by start block and its lo the last. It is never an extent,
	// so extentID 0 also means "none". A *cachedExtent into nodes is
	// good until the next newNode.
	nodes []cachedExtent
	free  extentID // head of the recycled nodes, chained through next

	// The bucket table, grown on demand.
	heads []extentID // heads[b]: the first extent starting in bucket b, or 0
	occ   []uint64   // bit b: heads[b] != 0
	sum   []uint64   // bit w: occ[w] != 0
}

// bucketShift sets the bucket width, 256 blocks. Half of it bounds a
// probe's walk, and the table costs one extentID per bucket.
const bucketShift = 8

// bucketOf returns the bucket of a start block; starts are LBNs, never
// negative.
func bucketOf(start int64) int { return int(start >> bucketShift) }

// extentID is an index into extentCache.nodes.
type extentID int32

// cachedExtent is one cached extent and its node in the LRU list and
// the start order — or, as nodes[0], the lists' sentinel.
type cachedExtent struct {
	start, end int64
	prev, next extentID // toward the LRU list's front / back
	lo, hi     extentID // the neighbours in start order
}

// newExtentCache builds a cache of capBlocks blocks; nil when capBlocks
// is 0.
func newExtentCache(capBlocks int64) *extentCache {
	if capBlocks <= 0 {
		return nil
	}
	return &extentCache{capBlocks: capBlocks, nodes: make([]cachedExtent, 1)}
}

// newNode takes a node off the free list or grows the arena. It
// invalidates every *cachedExtent obtained before.
func (c *extentCache) newNode() extentID {
	if id := c.free; id != 0 {
		c.free = c.nodes[id].next
		return id
	}
	c.nodes = append(c.nodes, cachedExtent{})
	return extentID(len(c.nodes) - 1)
}

// blocks returns the extent's size.
func (e *cachedExtent) blocks() int64 { return e.end - e.start }

// linkAfter puts id into the LRU list directly behind at (one step less
// recent), or at the front when at is the sentinel.
func (c *extentCache) linkAfter(id, at extentID) {
	next := c.nodes[at].next
	c.nodes[id].prev, c.nodes[id].next = at, next
	c.nodes[next].prev = id
	c.nodes[at].next = id
}

func (c *extentCache) unlink(id extentID) {
	e := &c.nodes[id]
	c.nodes[e.prev].next, c.nodes[e.next].prev = e.next, e.prev
}

// release takes id out of the LRU list and out of the block accounting;
// its place in the start order and its node are the caller's business.
func (c *extentCache) release(id extentID) {
	c.unlink(id)
	c.used -= c.nodes[id].blocks()
}

// drop releases id and recycles its node; the caller has taken it out
// of the start order (leave).
func (c *extentCache) drop(id extentID) {
	c.release(id)
	c.nodes[id].next = c.free
	c.free = id
}

// linkStart puts id, whose start is set, into the start order directly
// after at (first when at is the sentinel) and into its bucket.
func (c *extentCache) linkStart(id, at extentID) {
	hi := c.nodes[at].hi
	c.nodes[id].lo, c.nodes[id].hi = at, hi
	c.nodes[hi].lo = id
	c.nodes[at].hi = id
	c.join(id)
}

// leave takes id out of its bucket and out of the start order.
func (c *extentCache) leave(id extentID) {
	c.leaveBucket(id)
	e := &c.nodes[id]
	c.nodes[e.lo].hi, c.nodes[e.hi].lo = e.hi, e.lo
}

// join enters id into the bucket of its start, whose first extent it
// becomes unless one there starts before it. The table grows to reach
// the bucket.
func (c *extentCache) join(id extentID) {
	b := bucketOf(c.nodes[id].start)
	if b >= len(c.heads) {
		c.heads = growZeroed(c.heads, b+1)
		c.occ = growZeroed(c.occ, b>>6+1)
		c.sum = growZeroed(c.sum, b>>12+1)
	}
	if h := c.heads[b]; h == 0 {
		c.heads[b] = id
		c.occ[b>>6] |= 1 << (b & 63)
		c.sum[b>>12] |= 1 << (b >> 6 & 63)
	} else if c.nodes[id].start < c.nodes[h].start {
		c.heads[b] = id
	}
}

// leaveBucket takes id out of the bucket of its start: when id is the
// bucket's first extent, its hi takes over if that starts in the same
// bucket, and otherwise the bucket empties.
func (c *extentCache) leaveBucket(id extentID) {
	b := bucketOf(c.nodes[id].start)
	if c.heads[b] != id {
		return
	}
	if hi := c.nodes[id].hi; hi != 0 && bucketOf(c.nodes[hi].start) == b {
		c.heads[b] = hi
		return
	}
	c.heads[b] = 0
	if c.occ[b>>6] &^= 1 << (b & 63); c.occ[b>>6] == 0 {
		c.sum[b>>12] &^= 1 << (b >> 6 & 63)
	}
}

// growZeroed lengthens s to n. The table never shrinks, so what lies
// past its length is still zero.
func growZeroed[T any](s []T, n int) []T { return slices.Grow(s, n-len(s))[:n] }

// moveStart gives id a new start that keeps its place in the start
// order, moving it into another bucket when the start crosses an edge.
func (c *extentCache) moveStart(id extentID, start int64) {
	if bucketOf(start) == bucketOf(c.nodes[id].start) {
		c.nodes[id].start = start
		return
	}
	c.leaveBucket(id)
	c.nodes[id].start = start
	c.join(id)
}

// floor returns the last extent with start <= key, or 0 when there is
// none.
func (c *extentCache) floor(key int64) extentID {
	if key < 0 {
		return 0
	}
	b := bucketOf(key)
	if b >= len(c.heads) {
		return c.nodes[0].lo // every extent starts below key
	}
	id := c.heads[b]
	if id == 0 || c.nodes[id].start > key {
		// Nothing in key's bucket starts at or below it: the answer is
		// the extent before the first one past key — the sentinel's lo,
		// the last extent, when none is.
		if id == 0 {
			id = c.headAfter(b)
		}
		return c.nodes[id].lo
	}
	for next := c.nodes[id].hi; next != 0 && c.nodes[next].start <= key; next = c.nodes[id].hi {
		id = next
	}
	return id
}

// headAfter returns the first extent of the first occupied bucket past
// b, or 0 when there is none.
func (c *extentCache) headAfter(b int) extentID {
	w := b >> 6
	if m := c.occ[w] >> (b&63 + 1); m != 0 {
		return c.heads[b+1+bits.TrailingZeros64(m)]
	}
	for w++; w>>6 < len(c.sum); w = (w>>6 + 1) << 6 {
		if m := c.sum[w>>6] >> (w & 63); m != 0 {
			w += bits.TrailingZeros64(m)
			return c.heads[w<<6+bits.TrailingZeros64(c.occ[w])]
		}
	}
	return 0
}

// covered reports whether [start, end) lies entirely inside one cached
// extent, refreshing that extent's recency on a hit. Like every other
// method, it is a no-op on the nil cache a zero capacity yields.
func (c *extentCache) covered(start, end int64) bool {
	if c == nil {
		return false
	}
	id := c.floor(start)
	if id == 0 || c.nodes[id].end < end {
		return false
	}
	c.unlink(id)
	c.linkAfter(id, 0)
	return true
}

// insert adds [start, end) as most-recently-used, merging it with every
// overlapping or adjacent cached extent, then evicts from the LRU back
// until the capacity holds. Extents larger than the whole cache are not
// cached at all — and when merging would produce such an extent, the
// insert is skipped entirely so the existing cached neighbours survive
// instead of being evicted through.
func (c *extentCache) insert(start, end int64) {
	if c == nil || end-start > c.capBlocks || end <= start {
		return
	}
	// All cached extents with e.end >= start and e.start <= end merge:
	// a run of n neighbours in start order, from first. The extent
	// before the run is at, or at itself is first.
	at := c.floor(start - 1)
	first := at
	if at == 0 || c.nodes[at].end < start {
		first = c.nodes[at].hi
	}
	n := 0
	for id := first; id != 0 && c.nodes[id].start <= end; id = c.nodes[id].hi {
		e := &c.nodes[id]
		start, end = min(start, e.start), max(end, e.end)
		n++
	}
	if end-start > c.capBlocks {
		return
	}
	// The first merged neighbour becomes the union in place (its place
	// in the start order is already where the union sorts); the others
	// go.
	var merged extentID
	if n > 0 {
		merged = first
		c.release(merged)
		for k := 1; k < n; k++ {
			id := c.nodes[merged].hi
			c.leave(id)
			c.drop(id)
		}
		c.moveStart(merged, start)
	} else {
		merged = c.newNode()
		c.nodes[merged].start = start
		c.linkStart(merged, at)
	}
	c.nodes[merged].end = end
	c.linkAfter(merged, 0)
	c.used += end - start
	// The merged extent fits, so the list is never empty here.
	for c.used > c.capBlocks {
		victim := c.nodes[0].prev
		c.leave(victim)
		c.drop(victim)
	}
}

// invalidate removes [start, end) from the cache: fully covered extents
// are dropped, partially covered ones are trimmed, and an extent
// straddling the range splits in two — the remnants take the original
// extent's place in the LRU list, the right one directly behind the
// left. Only the service loop calls this, on behalf of a
// write op mutating those blocks, before the write's cost is charged.
// Returns the number of cached blocks invalidated.
func (c *extentCache) invalidate(start, end int64) int64 {
	if c == nil || end <= start {
		return 0
	}
	id := c.floor(start)
	if id == 0 || c.nodes[id].end <= start {
		id = c.nodes[id].hi
	}
	if id == 0 {
		return 0
	}
	var dropped int64
	cut := func(n int64) { // an extent loses n blocks but stays
		dropped += n
		c.used -= n
	}
	if c.nodes[id].start < start {
		if c.nodes[id].end > end {
			// Straddle: the extent keeps the left part, a new one right
			// behind it in both lists takes the right part.
			right := c.newNode()
			c.nodes[right].start, c.nodes[right].end = end, c.nodes[id].end
			c.linkAfter(right, id)
			c.linkStart(right, id)
			cut(end - start)
			c.nodes[id].end = start
			return dropped
		}
		e := &c.nodes[id]
		cut(e.end - start)
		e.end = start
		id = e.hi
	}
	// What is left of the range starts at or before every extent it
	// touches: a run of fully covered ones, then at most one that keeps
	// its tail.
	for id != 0 && c.nodes[id].start < end {
		e := &c.nodes[id]
		if e.end > end {
			cut(end - e.start)
			c.moveStart(id, end)
			break
		}
		next := e.hi
		dropped += e.blocks()
		c.leave(id)
		c.drop(id)
		id = next
	}
	return dropped
}
