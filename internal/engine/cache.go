package engine

import "slices"

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
// Four pieces, none of whose per-operation cost grows with the number
// n of cached extents beyond a logarithm:
//
//   - nodes, the arena every cachedExtent lives in. Extents refer to
//     each other and are referred to by index (extentID), and evicted
//     ones are recycled through a free list, so a cached extent costs
//     no allocation of its own and the whole population is one
//     pointer-free block the garbage collector neither scans nor puts
//     write barriers on.
//   - idx, the ordered index by start block: a chunked sorted array
//     (see extentIndex). Lookup is two binary searches, O(log n);
//     insert and remove shift at most one leaf of leafMax entries.
//   - one intrusive LRU list per QoS class (cacheClass): the prev/next
//     links live inside cachedExtent, so linking, unlinking and
//     move-to-front are O(1).
//   - clock, a monotone recency stamp written on every insert and hit.
//     Each class list is ordered by stamp, so the classes' backs are
//     the only eviction candidates and the globally least recently
//     used one is the back with the smallest stamp.
//
// covered is O(log n); insertFor and invalidate are O(log n + k) for k
// extents merged or cut (each of which was paid for by its own
// insert), plus O(#classes) per evicted victim. The arena grows to the
// largest population seen and lives as long as the cache.
//
// # QoS partitioning
//
// With fair sharing on, the cache is built with per-class reserve
// floors (capacity × weight / Σweights) and is class-aware:
// every extent is tagged with the QoS class that inserted it (a merge
// re-tags the union to the inserting class), per-class usage is
// tracked, and eviction turns borrower-first — a class may grow past
// its reserve into idle capacity, but when the cache overflows the
// victim is the least-recently-used extent belonging to a class that
// is OVER its reserve. A class at or under its reserve keeps its
// extents no matter who is inserting: a bulk scan can fill idle cache
// yet can never push an interactive class's working set below its
// floor. With shares nil (fair sharing off) eviction is the plain
// LRU-back rule, bit-identical to the unpartitioned cache.
type extentCache struct {
	capBlocks int64
	used      int64
	clock     uint64 // last recency stamp handed out
	idx       extentIndex

	// nodes[0] is never used, so extentID 0 means "none". A *cachedExtent
	// into nodes is good until the next newNode.
	nodes []cachedExtent
	free  extentID // head of the recycled nodes, chained through next

	// classes holds one record per QoS class seen by the cache:
	// its cached blocks (maintained even with shares nil), its reserve
	// floor and its LRU list. The set is as small as the QoS
	// registry, so lookup by name is a linear scan.
	classes []cacheClass
	// shares is the per-class reserve floor in blocks (nil = plain
	// unpartitioned LRU), copied into cacheClass.reserve.
	shares map[string]int64
}

// extentID is an index into extentCache.nodes.
type extentID int32

// cachedExtent is one cached extent and its node in its class's LRU
// list — or, with start == end == 0, a list's sentinel.
type cachedExtent struct {
	start, end int64
	stamp      uint64   // recency: larger is more recent; split remnants share one
	prev, next extentID // toward the class list's front / back
	class      int32    // index into extentCache.classes
}

// cacheClass is one QoS class's slice of the cache. root is the
// sentinel of its circular LRU list: root's next is the most recently
// used extent, its prev the least.
type cacheClass struct {
	name    string
	used    int64 // cached blocks tagged with this class
	reserve int64 // floor in blocks; 0 with shares nil or for an unregistered class
	root    extentID
}

// newExtentCache builds a cache of capBlocks blocks with the given
// per-class reserve floors (nil: plain LRU); nil when capBlocks is 0.
func newExtentCache(capBlocks int64, shares map[string]int64) *extentCache {
	if capBlocks <= 0 {
		return nil
	}
	return &extentCache{capBlocks: capBlocks, shares: shares}
}

// classFor returns the index of the named class's record, creating it
// on first use.
func (c *extentCache) classFor(name string) int32 {
	for i := range c.classes {
		if c.classes[i].name == name {
			return int32(i)
		}
	}
	root := c.newNode()
	c.nodes[root] = cachedExtent{prev: root, next: root}
	c.classes = append(c.classes, cacheClass{name: name, reserve: c.shares[name], root: root})
	return int32(len(c.classes) - 1)
}

// newNode takes a node off the free list or grows the arena. It
// invalidates every *cachedExtent obtained before.
func (c *extentCache) newNode() extentID {
	if id := c.free; id != 0 {
		c.free = c.nodes[id].next
		return id
	}
	if len(c.nodes) == 0 {
		c.nodes = append(c.nodes, cachedExtent{}) // the unused nodes[0]
	}
	c.nodes = append(c.nodes, cachedExtent{})
	return extentID(len(c.nodes) - 1)
}

// blocks returns the extent's size.
func (e *cachedExtent) blocks() int64 { return e.end - e.start }

// linkAfter puts id into at's list directly behind at (one step less
// recent), or at the front when at is the list's root.
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

// touch makes the unlinked extent id the most recently used of its
// class and of the cache.
func (c *extentCache) touch(id extentID) {
	c.clock++
	c.nodes[id].stamp = c.clock
	c.linkAfter(id, c.classes[c.nodes[id].class].root)
}

// release takes id out of its LRU list and out of the block accounting;
// its index entry and its node are the caller's business.
func (c *extentCache) release(id extentID) {
	c.unlink(id)
	e := &c.nodes[id]
	c.used -= e.blocks()
	c.classes[e.class].used -= e.blocks()
}

// drop releases id and recycles its node; the caller removes its index
// entry.
func (c *extentCache) drop(id extentID) {
	c.release(id)
	c.nodes[id].next = c.free
	c.free = id
}

// covered reports whether [start, end) lies entirely inside one cached
// extent, refreshing that extent's recency on a hit. Like every other
// method, it is a no-op on the nil cache a zero capacity yields.
func (c *extentCache) covered(start, end int64) bool {
	if c == nil {
		return false
	}
	at := c.idx.floor(start)
	if at.i < 0 {
		return false
	}
	if id := c.idx.at(at).id; c.nodes[id].end >= end {
		c.unlink(id)
		c.touch(id)
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
func (c *extentCache) insertFor(start, end int64, class string) {
	if c == nil || end-start > c.capBlocks || end <= start {
		return
	}
	// All cached extents with e.end >= start and e.start <= end merge:
	// a run of n neighbours in the index, starting at lo.
	lo := c.idx.floor(start - 1)
	if lo.i < 0 || c.nodes[c.idx.at(lo).id].end < start {
		lo = c.idx.next(lo)
	}
	n := 0
	for at := lo; c.idx.valid(at) && c.idx.at(at).start <= end; at = c.idx.next(at) {
		e := &c.nodes[c.idx.at(at).id]
		start, end = min(start, e.start), max(end, e.end)
		n++
	}
	if end-start > c.capBlocks {
		return
	}
	// The first merged neighbour becomes the union in place (its index
	// slot is already where the union sorts); the others go.
	var merged extentID
	if n > 0 {
		merged = c.idx.at(lo).id
		c.release(merged)
		rest := c.idx.next(lo)
		for at, k := rest, 1; k < n; at, k = c.idx.next(at), k+1 {
			c.drop(c.idx.at(at).id)
		}
		c.idx.setStart(lo, start) // before remove, which may move lo's leaf
		c.idx.remove(rest, n-1)
	} else {
		merged = c.newNode()
		c.idx.insert(lo, indexEntry{start, merged})
	}
	cl := c.classFor(class)
	e := &c.nodes[merged]
	e.start, e.end, e.class = start, end, cl
	c.touch(merged)
	c.used += e.blocks()
	c.classes[cl].used += e.blocks()
	for c.used > c.capBlocks {
		victim := c.evictVictim()
		if victim == 0 {
			break
		}
		c.idx.remove(c.idx.floor(c.nodes[victim].start), 1)
		c.drop(victim)
	}
}

// evictVictim picks the next extent to evict, 0 when nothing is cached.
// With shares nil it is the plain LRU back: the oldest of the classes'
// backs. With shares set it is the least-recently-used extent whose
// class is over its reserve floor — the borrower-first rule: a class at
// or under its reserve is immune, so over-capacity pressure always
// reclaims borrowed blocks before anyone's guaranteed share. Since
// Σ reserves ≤ capacity, an over-capacity cache always holds at least
// one over-reserve extent; the LRU-back fallback only guards the
// impossible empty pick.
func (c *extentCache) evictVictim() extentID {
	if c.shares != nil {
		if v := c.oldestBack(true); v != 0 {
			return v
		}
	}
	return c.oldestBack(false)
}

// oldestBack returns the least recently used extent among the classes'
// list backs, looking only at classes over their reserve when asked.
// Equal stamps only occur inside one class (split remnants), so the
// pick does not depend on the order of c.classes.
func (c *extentCache) oldestBack(overReserveOnly bool) extentID {
	var oldest extentID
	for i := range c.classes {
		cl := &c.classes[i]
		back := c.nodes[cl.root].prev
		if back == cl.root || (overReserveOnly && cl.used <= cl.reserve) {
			continue
		}
		if oldest == 0 || c.nodes[back].stamp < c.nodes[oldest].stamp {
			oldest = back
		}
	}
	return oldest
}

// invalidate removes [start, end) from the cache: fully covered extents
// are dropped, partially covered ones are trimmed, and an extent
// straddling the range splits in two — every remnant keeps the original
// extent's recency. Only the service loop calls this, on behalf of a
// write op mutating those blocks, before the write's cost is charged.
// Returns the number of cached blocks invalidated.
func (c *extentCache) invalidate(start, end int64) int64 {
	if c == nil || end <= start {
		return 0
	}
	at := c.idx.floor(start)
	if at.i < 0 || c.nodes[c.idx.at(at).id].end <= start {
		at = c.idx.next(at)
	}
	if !c.idx.valid(at) {
		return 0
	}
	var dropped int64
	cut := func(e *cachedExtent, n int64) { // e loses n blocks but stays
		dropped += n
		c.used -= n
		c.classes[e.class].used -= n
	}
	if id := c.idx.at(at).id; c.nodes[id].start < start {
		if c.nodes[id].end > end {
			// Straddle: the extent keeps the left part, a new one right
			// behind it in the LRU list takes the right part.
			right := c.newNode()
			e := &c.nodes[id]
			c.nodes[right] = cachedExtent{start: end, end: e.end, stamp: e.stamp, class: e.class}
			c.linkAfter(right, id)
			c.idx.insert(c.idx.next(at), indexEntry{end, right})
			cut(e, end-start)
			e.end = start
			return dropped
		}
		e := &c.nodes[id]
		cut(e, e.end-start)
		e.end = start
		at = c.idx.next(at)
	}
	// What is left of the range starts at or before every extent it
	// touches: a run of n fully covered ones, then at most one that
	// keeps its tail.
	run, n := at, 0
	for ; c.idx.valid(at) && c.idx.at(at).start < end; at = c.idx.next(at) {
		id := c.idx.at(at).id
		if e := &c.nodes[id]; e.end > end {
			cut(e, end-e.start)
			e.start = end
			c.idx.setStart(at, end)
			break
		}
		dropped += c.nodes[id].blocks()
		c.drop(id)
		n++
	}
	c.idx.remove(run, n)
	return dropped
}

// leafMax is the most entries one index leaf holds. 256 sixteen-byte
// entries fill one 4 KiB allocation; a leaf is what an insert or remove
// shifts, so it bounds their cost.
const leafMax = 256

// extentIndex is the cache's ordered index: the cached extents sorted
// by start block, cut into leaves of at most leafMax entries each.
// Every leaf is a non-empty sorted slice with capacity leafMax, the
// leaves' concatenation is sorted, and mins repeats each leaf's first
// key so that locating a leaf touches one dense array. A full leaf
// splits in half on insert; after a remove, neighbouring leaves that
// together fit in half a leaf merge, so any two neighbours hold more
// than leafMax/2 entries and the slack is bounded (mean fill stays
// above a quarter, around two thirds under random churn).
//
// Lookup is O(log n). Insert and remove shift O(leafMax) entries inside
// one leaf and, once per leafMax/2 of them, O(n/leafMax) leaf headers
// when a leaf is added or dropped.
type extentIndex struct {
	mins   []int64 // mins[l] == leaves[l][0].start
	leaves [][]indexEntry
}

// indexEntry repeats the extent's start beside its id so that a search
// stays inside the leaf.
type indexEntry struct {
	start int64
	id    extentID
}

// indexPos addresses one entry. floor's "nothing at or below" is
// {0, -1}, whose next is the first entry; one past the last entry is
// {len(leaves), 0}.
type indexPos struct{ leaf, i int }

// leafFor returns the last leaf whose first key is <= key, or -1.
func (x *extentIndex) leafFor(key int64) int {
	lo, hi := 0, len(x.mins)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); x.mins[m] <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// floor returns the position of the last entry with start <= key.
func (x *extentIndex) floor(key int64) indexPos {
	l := x.leafFor(key)
	if l < 0 {
		return indexPos{0, -1}
	}
	return indexPos{l, upperBound(x.leaves[l], key) - 1}
}

// upperBound returns the index of the first entry with start > key.
func upperBound(leaf []indexEntry, key int64) int {
	lo, hi := 0, len(leaf)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); leaf[m].start <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (x *extentIndex) valid(p indexPos) bool { return p.leaf < len(x.leaves) }

func (x *extentIndex) at(p indexPos) indexEntry { return x.leaves[p.leaf][p.i] }

// next returns the position after p, which may be one past the end.
func (x *extentIndex) next(p indexPos) indexPos {
	if p.leaf < len(x.leaves) && p.i+1 < len(x.leaves[p.leaf]) {
		return indexPos{p.leaf, p.i + 1}
	}
	return indexPos{p.leaf + 1, 0}
}

// setStart changes the key of the entry at p; the caller guarantees
// that the new key still sorts between p's neighbours.
func (x *extentIndex) setStart(p indexPos, start int64) {
	x.leaves[p.leaf][p.i].start = start
	if p.i == 0 {
		x.mins[p.leaf] = start
	}
}

// insert puts en at p, which must be the position of the first entry
// with a larger key, or any position past the end when there is none.
func (x *extentIndex) insert(p indexPos, en indexEntry) {
	l, i := p.leaf, p.i
	if l >= len(x.leaves) { // behind the last entry
		if len(x.leaves) == 0 {
			x.leaves = append(x.leaves, make([]indexEntry, 0, leafMax))
			x.mins = append(x.mins, en.start)
		}
		l = len(x.leaves) - 1
		i = len(x.leaves[l])
	}
	if leaf := x.leaves[l]; len(leaf) == leafMax {
		const half = leafMax / 2
		upper := make([]indexEntry, half, leafMax)
		copy(upper, leaf[half:])
		x.leaves[l] = leaf[:half]
		x.leaves = slices.Insert(x.leaves, l+1, upper)
		x.mins = slices.Insert(x.mins, l+1, upper[0].start)
		if i > half {
			l, i = l+1, i-half
		}
	}
	x.leaves[l] = slices.Insert(x.leaves[l], i, en)
	if i == 0 {
		x.mins[l] = en.start
	}
}

// remove deletes the n consecutive entries starting at p.
func (x *extentIndex) remove(p indexPos, n int) {
	if n == 0 {
		return
	}
	l := p.leaf
	if p.i > 0 { // the tail of the first leaf
		k := min(n, len(x.leaves[l])-p.i)
		x.leaves[l] = slices.Delete(x.leaves[l], p.i, p.i+k)
		n -= k
		l++
	}
	first := l // whole leaves [first, l) go
	for n > 0 && n >= len(x.leaves[l]) {
		n -= len(x.leaves[l])
		l++
	}
	if n > 0 { // the head of the last leaf
		x.leaves[l] = slices.Delete(x.leaves[l], 0, n)
		x.mins[l] = x.leaves[l][0].start
	}
	x.leaves = slices.Delete(x.leaves, first, l)
	x.mins = slices.Delete(x.mins, first, l)
	// Only leaves first-1 and first shrank or became neighbours.
	for m := first; m >= first-2; m-- {
		x.mergeWithNext(m)
	}
}

// mergeWithNext folds leaf l+1 into leaf l when both exist and fit in
// half a leaf together.
func (x *extentIndex) mergeWithNext(l int) {
	if l < 0 || l+1 >= len(x.leaves) || len(x.leaves[l])+len(x.leaves[l+1]) > leafMax/2 {
		return
	}
	x.leaves[l] = append(x.leaves[l], x.leaves[l+1]...)
	x.leaves = slices.Delete(x.leaves, l+1, l+2)
	x.mins = slices.Delete(x.mins, l+1, l+2)
}
