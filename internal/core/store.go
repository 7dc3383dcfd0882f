package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/lvm"
)

// ErrOverflowExhausted is returned when an insert or load needs a
// fresh overflow page and every overflow extent is full. Detect it
// with errors.Is: the condition is recoverable by adding capacity
// (AddOverflow after a volume grow) and retrying, which is exactly
// what the pool's auto-grow hook does.
var ErrOverflowExhausted = errors.New("core: overflow extent exhausted")

// CellLocator maps a cell coordinate to its home block. Both MultiMap's
// Mapping and the linear mappings satisfy it, so CellStore works with
// any placement.
type CellLocator func(cell []int) (int64, error)

// CellStore implements the paper's online-update support (§4.6): each
// cell is loaded at a tunable fill factor; inserts that overflow a
// cell's home block go to overflow pages; underflowing cells past a
// reclamation threshold are compacted by Reorganize.
//
// The store tracks chain state only — it performs no I/O itself.
// Every mutator returns the list of block extents it dirtied, so the
// caller can submit them as a write op to the volume's engine.Service,
// which invalidates overlapping cached extents and charges the write's
// simulated cost. A CellStore is safe for concurrent use; each method
// is atomic under an internal mutex.
type CellStore struct {
	locate   CellLocator
	capacity int     // points a block can hold
	fill     float64 // initial fill factor at load time
	reclaim  float64 // underflow threshold triggering reorganization

	mu       sync.Mutex
	counts   map[int64]int   // live points per block (home or overflow)
	chains   map[int64]int64 // block -> its overflow page (0 = none)
	overflow struct {
		ext  []lvm.Request // free extents for overflow pages
		next []int64       // next free block within each extent
		rr   int           // round-robin cursor over the extents
	}
	reorgs int
}

// NewCellStore builds a store over the locator. capacity is points per
// block; fillFactor in (0,1] reserves insert headroom at load; the
// reclaim threshold in [0,1) triggers reorganization when a chain's
// occupancy falls below it. Overflow pages are carved from the given
// free extents, allocated round-robin across them — with one extent per
// member disk (how the update layer carves them), overflow chains
// spread their pages over every disk instead of piling onto one.
func NewCellStore(locate CellLocator, capacity int, fillFactor, reclaim float64,
	overflow []lvm.Request) (*CellStore, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: capacity must be positive, got %d", capacity)
	}
	if fillFactor <= 0 || fillFactor > 1 {
		return nil, fmt.Errorf("core: fill factor %v outside (0,1]", fillFactor)
	}
	if reclaim < 0 || reclaim >= 1 {
		return nil, fmt.Errorf("core: reclaim threshold %v outside [0,1)", reclaim)
	}
	s := &CellStore{
		locate:   locate,
		capacity: capacity,
		fill:     fillFactor,
		reclaim:  reclaim,
		counts:   make(map[int64]int),
		chains:   make(map[int64]int64),
	}
	for _, e := range overflow {
		if e.Count < 0 {
			return nil, fmt.Errorf("core: negative overflow extent [%d,+%d)", e.VLBN, e.Count)
		}
		if e.Count == 0 {
			continue
		}
		s.overflow.ext = append(s.overflow.ext, e)
		s.overflow.next = append(s.overflow.next, e.VLBN)
	}
	return s, nil
}

// AddOverflow appends fresh free extents to the store's overflow pool —
// the online-growth hook: when the volume underneath grows (a
// thin-provisioned pool volume extended past its initial capacity), the
// new blocks become overflow pages without re-opening the store, so
// §4.6 chain growth continues across the capacity boundary. The
// round-robin cursor is untouched; existing chains and counts are
// unaffected.
func (s *CellStore) AddOverflow(extents []lvm.Request) error {
	for _, e := range extents {
		if e.Count < 0 {
			return fmt.Errorf("core: negative overflow extent [%d,+%d)", e.VLBN, e.Count)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range extents {
		if e.Count == 0 {
			continue
		}
		s.overflow.ext = append(s.overflow.ext, e)
		s.overflow.next = append(s.overflow.next, e.VLBN)
	}
	return nil
}

// Clone returns a deep copy of the store's chain state bound to the
// given locator — the snapshot/clone hook: a cloned volume shares the
// parent's block contents (copy-on-write underneath), so the clone's
// chain bookkeeping starts as an exact copy and then diverges
// independently. The copy is atomic with respect to concurrent
// mutations of the parent.
func (s *CellStore) Clone(locate CellLocator) *CellStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &CellStore{
		locate:   locate,
		capacity: s.capacity,
		fill:     s.fill,
		reclaim:  s.reclaim,
		counts:   make(map[int64]int, len(s.counts)),
		chains:   make(map[int64]int64, len(s.chains)),
		reorgs:   s.reorgs,
	}
	for b, n := range s.counts {
		c.counts[b] = n
	}
	for b, nxt := range s.chains {
		c.chains[b] = nxt
	}
	c.overflow.ext = append([]lvm.Request(nil), s.overflow.ext...)
	c.overflow.next = append([]int64(nil), s.overflow.next...)
	c.overflow.rr = s.overflow.rr
	return c
}

// writeSet accumulates the blocks one mutation dirties and emits them
// as sorted, coalesced single-extent requests. A mutation dirties a
// handful of blocks, so they are appended to a slice that starts on the
// caller's frame and are sorted once at the end.
type writeSet []int64

// reqs returns the dirtied blocks as ascending requests, adjacent
// blocks merged into one extent and repeats dropped.
func (bs writeSet) reqs() []lvm.Request {
	if len(bs) == 0 {
		return nil
	}
	slices.Sort(bs)
	runs := 1
	for i := 1; i < len(bs); i++ {
		if bs[i] > bs[i-1]+1 {
			runs++
		}
	}
	out := make([]lvm.Request, 1, runs)
	out[0] = lvm.Request{VLBN: bs[0], Count: 1}
	for _, b := range bs[1:] {
		if last := &out[len(out)-1]; b == last.VLBN+int64(last.Count) {
			last.Count++
		} else if b >= last.VLBN+int64(last.Count) {
			out = append(out, lvm.Request{VLBN: b, Count: 1})
		}
	}
	return out
}

// LoadCell bulk-loads n points into a cell, honouring the fill factor:
// every chain block keeps at most capacity*fill points and the rest
// spill to overflow pages immediately (a bulk load of a skewed cell).
// Loading into a non-empty cell tops its existing chain blocks up to
// the fill budget first — never past it, so no block ever exceeds its
// physical capacity — before growing the chain. It returns the block
// extents the load dirtied.
func (s *CellStore) LoadCell(cell []int, n int) ([]lvm.Request, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative point count")
	}
	home, err := s.locate(cell)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := make(writeSet, 0, 8)
	budget := int(float64(s.capacity) * s.fill)
	if budget < 1 {
		budget = 1
	}
	// Top up the existing chain first (a block past the budget — filled
	// by inserts — contributes no headroom).
	for b := home; n > 0; {
		if free := budget - s.counts[b]; free > 0 {
			take := n
			if take > free {
				take = free
			}
			s.counts[b] += take
			w = append(w, b)
			n -= take
		}
		nxt, ok := s.chains[b]
		if !ok {
			break
		}
		b = nxt
	}
	for n > 0 {
		page, tail, err := s.appendPage(home)
		if err != nil {
			return w.reqs(), err
		}
		w = append(w, tail) // the chain pointer written into the old tail
		take := n
		if take > budget {
			take = budget
		}
		s.counts[page] += take
		w = append(w, page)
		n -= take
	}
	return w.reqs(), nil
}

// Insert adds one point to a cell: into free space in the destination
// cell if any, otherwise into (possibly new) overflow pages (§4.6). It
// returns the block extents the insert dirtied — the block that
// received the point, plus the old chain tail and the fresh page when
// the chain grew.
func (s *CellStore) Insert(cell []int) ([]lvm.Request, error) {
	home, err := s.locate(cell)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := make(writeSet, 0, 8)
	for b := home; ; {
		if s.counts[b] < s.capacity {
			s.counts[b]++
			w = append(w, b)
			return w.reqs(), nil
		}
		nxt, ok := s.chains[b]
		if !ok {
			page, tail, err := s.appendPage(home)
			if err != nil {
				return nil, err
			}
			w = append(w, tail)
			nxt = page
		}
		b = nxt
	}
}

// Delete removes one point from a cell's chain, reorganizing the chain
// if its occupancy drops below the reclamation threshold. It returns
// the block extents the delete dirtied — one block usually, the whole
// pre-compaction chain when a reorganization ran.
func (s *CellStore) Delete(cell []int) ([]lvm.Request, error) {
	home, err := s.locate(cell)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Remove from the tail-most non-empty block, keeping early blocks
	// dense.
	var blocks []int64
	for b := home; ; {
		blocks = append(blocks, b)
		nxt, ok := s.chains[b]
		if !ok {
			break
		}
		b = nxt
	}
	w := make(writeSet, 0, 8)
	for i := len(blocks) - 1; i >= 0; i-- {
		if s.counts[blocks[i]] > 0 {
			s.counts[blocks[i]]--
			w = append(w, blocks[i])
			if s.occupancy(home) < s.reclaim {
				for _, b := range s.reorganize(home) {
					w = append(w, b)
				}
			}
			return w.reqs(), nil
		}
	}
	return nil, fmt.Errorf("core: delete from empty cell %v", cell)
}

// appendPage allocates a fresh overflow page at the chain tail and
// returns (page, tail): the new page and the block whose chain pointer
// was rewritten to reach it. Pages come from the overflow extents
// round-robin, skipping exhausted extents.
func (s *CellStore) appendPage(home int64) (page, tail int64, err error) {
	o := &s.overflow
	alloc := -1
	for k := 0; k < len(o.ext); k++ {
		j := (o.rr + k) % len(o.ext)
		if o.next[j] < o.ext[j].VLBN+int64(o.ext[j].Count) {
			alloc = j
			break
		}
	}
	if alloc < 0 {
		return 0, 0, ErrOverflowExhausted
	}
	page = o.next[alloc]
	o.next[alloc]++
	o.rr = alloc + 1
	tail = home
	for {
		nxt, ok := s.chains[tail]
		if !ok {
			break
		}
		tail = nxt
	}
	s.chains[tail] = page
	return page, tail, nil
}

// occupancy returns the chain's live fraction of its total capacity.
func (s *CellStore) occupancy(home int64) float64 {
	points, blocks := 0, 0
	for b := home; ; {
		points += s.counts[b]
		blocks++
		nxt, ok := s.chains[b]
		if !ok {
			break
		}
		b = nxt
	}
	return float64(points) / float64(blocks*s.capacity)
}

// reorganize compacts a chain: all points move as low as possible and
// empty tail pages are dropped (their blocks leak back to the store's
// free list conceptually; the paper calls reorganization "an expensive
// operation for any mapping technique" and so do we by counting it and
// by returning every pre-compaction chain block as dirtied).
func (s *CellStore) reorganize(home int64) []int64 {
	var blocks []int64
	points := 0
	for b := home; ; {
		points += s.counts[b]
		blocks = append(blocks, b)
		nxt, ok := s.chains[b]
		if !ok {
			break
		}
		b = nxt
	}
	for _, b := range blocks {
		take := points
		if take > s.capacity {
			take = s.capacity
		}
		s.counts[b] = take
		points -= take
	}
	// Drop empty tail links.
	for i := 0; i < len(blocks)-1; i++ {
		if s.counts[blocks[i+1]] == 0 {
			delete(s.chains, blocks[i])
			for j := i + 1; j < len(blocks)-1; j++ {
				delete(s.chains, blocks[j])
			}
			for j := i + 1; j < len(blocks); j++ {
				delete(s.counts, blocks[j])
			}
			break
		}
	}
	s.reorgs++
	return blocks
}

// Reorganizations returns how many chain compactions have run.
func (s *CellStore) Reorganizations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reorgs
}

// Points returns the live point count of a cell's chain.
func (s *CellStore) Points(cell []int) (int, error) {
	home, err := s.locate(cell)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for b := home; ; {
		n += s.counts[b]
		nxt, ok := s.chains[b]
		if !ok {
			return n, nil
		}
		b = nxt
	}
}

// ReadRequests returns the I/O requests needed to fetch a cell: its
// home block plus any overflow pages. The snapshot is atomic — it
// reflects the chain as of some instant between concurrent mutations.
func (s *CellStore) ReadRequests(cell []int) ([]lvm.Request, error) {
	home, err := s.locate(cell)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	reqs := []lvm.Request{{VLBN: home, Count: 1}}
	for b := home; ; {
		nxt, ok := s.chains[b]
		if !ok {
			return reqs, nil
		}
		reqs = append(reqs, lvm.Request{VLBN: nxt, Count: 1})
		b = nxt
	}
}
