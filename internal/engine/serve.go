package engine

// The service loop — SCHEDULE + COHERENCE + SIMULATE stage (service.go
// maps the stages). One admitted batch is served here: reads probe the
// extent cache and coalesce across queries into shared extents, writes
// fault COW tracks, invalidate, and are served or absorbed into the
// dirty buffer, and whatever must reach the disks goes through
// lvm.Volume.ServeBatch. Runs on the loop goroutine only. It may touch
// the extent cache, the dirty buffer, the volume's COW state and the
// scratch buffers, and nothing else moves the disks' heads (Reset
// rewinds them). Results leave through the finish*/chargeWrite folds in
// attribute.go; the one place this file takes mu itself is flushDirty,
// to post a group commit's shares.

import (
	"slices"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// svcScratch is the loop goroutine's reusable buffer set: the
// admission hot path runs allocation-free in steady state by building
// each pass's transient state into these buffers instead of fresh
// per-pass allocations.
type svcScratch struct {
	reads, writes []*serviceOp
	kept          []lvm.Request // planSingle's cache-probe survivor list
	rr, split     []lvm.Request // read-dependency screen buffers
	merge         mergeScratch  // merged-batch plan buffers
	touched       map[string]bool
	flushComp     map[int64]lvm.Completion
}

// serveChunks services one admission batch of chunk and write ops
// under the documented ordering policy: all read chunks first (merged
// across queries when more than one), then the batch's writes in
// submission order, each invalidating overlapping cached extents
// before its cost is charged. With write-back on, writes are absorbed
// into the dirty buffer instead of served (invalidation still happens
// at absorb time), a read overlapping dirty data forces a flush before
// the reads are served (read-your-write: a read never observes a disk
// state older than an acknowledged write), and reaching the watermark
// flushes after the batch's writes are absorbed.
func (s *Service) serveChunks(items []*serviceOp) {
	reads, writes := s.scratch.reads[:0], s.scratch.writes[:0]
	for _, op := range items {
		if op.kind == opWrite {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	s.scratch.reads, s.scratch.writes = reads, writes
	wbOn := s.wb != nil
	if wbOn && len(reads) > 0 && len(s.wb.extents) > 0 {
		rr := s.scratch.rr[:0]
		for _, op := range reads {
			rr = append(rr, op.chunk.Reqs...)
		}
		split := s.splitInto(s.scratch.split[:0], rr)
		s.scratch.rr, s.scratch.split = rr[:0], split[:0]
		if s.wb.overlaps(split) {
			s.flushDirty()
		}
	}
	switch {
	case len(reads) == 0:
	case len(reads) == 1:
		s.serveSingle(reads[0])
	default:
		s.serveMerged(reads)
	}
	for _, op := range writes {
		if wbOn {
			s.absorbWrite(op)
		} else {
			s.serveWrite(op)
		}
	}
	if wbOn && s.wb.blocks >= s.opts.WriteBack.WatermarkBlocks {
		s.flushDirty()
	}
}

// splitInto clips extents at member-disk segment boundaries, appending
// the pieces to out (loop scratch on the hot path): a request must stay
// within one disk (the same invariant the read coalescer enforces), but
// write submitters coalesce the blocks a mutation dirties by plain VLBN
// adjacency, and an overflow extent ending exactly at one disk's tail
// can sit adjacent to the next disk's first block. Out-of-range
// addresses pass through unchanged so ServeBatch surfaces the error to
// the submitter.
func (s *Service) splitInto(out []lvm.Request, reqs []lvm.Request) []lvm.Request {
	for _, r := range reqs {
		for {
			di, lbn, err := s.vol.Locate(r.VLBN)
			if err != nil {
				out = append(out, r)
				break
			}
			room := s.vol.DiskBlocks(di) - lbn
			if int64(r.Count) <= room {
				out = append(out, r)
				break
			}
			out = append(out, lvm.Request{VLBN: r.VLBN, Count: int(room)})
			r.VLBN += room
			r.Count -= int(room)
		}
	}
	return out
}

// cowFault serves the copy-on-write fault set of one write op: the
// track-granule spans of its target blocks still mapped to shared
// frozen extents (a snapshotted parent's, or the parent extents under a
// clone) are read at their current shared location — the simulated
// copy-out — and then remapped onto privately allocated extents, so the
// write I/O that follows lands in storage this volume owns. The fault
// read is priced into the op's result like the write itself (cost,
// elapsed time, blocks in Writes), so it is attributed to the writing
// session; the faulted block count lands in CowFaultBlocks.
// Returns the number of fault requests issued. A volume with no COW
// segments detects the no-op with one atomic load.
//
// Ordering matters: callers must re-derive segment boundaries
// (splitInto) AFTER a successful fault, because resolving
// splits segments and renumbers their indices.
func (s *Service) cowFault(op *serviceOp, res *opResult) (int, error) {
	spans := s.vol.CowSpans(op.chunk.Reqs)
	if len(spans) == 0 {
		return 0, nil
	}
	comps, elapsed, err := s.vol.ServeBatch(spans, op.policy)
	if err != nil {
		return 0, err
	}
	if err := s.vol.ResolveCOW(spans); err != nil {
		return 0, err
	}
	res.stats.addServed(comps, elapsed, &res.stats.Writes)
	for _, sp := range spans {
		res.stats.CowFaultBlocks += int64(sp.Count)
	}
	return len(spans), nil
}

// serveWrite applies one write op: fault any copy-on-write target
// tracks into private extents, invalidate every cached extent
// overlapping the mutated ranges, then serve the write I/O and charge
// its cost to the submitting session. Writes never populate the cache.
// Extents crossing a segment boundary are split here — after the COW
// resolve, whose segment splits move the boundaries — so Write's
// contract needs no per-disk precondition from its callers.
func (s *Service) serveWrite(op *serviceOp) {
	var res opResult
	faultReqs, err := s.cowFault(op, &res)
	if err != nil {
		s.chargeWrite(op, opResult{}, 0, err)
		return
	}
	// The split result lives only until the reply below (nothing reads
	// chunk.Reqs after a write is answered), so loop scratch is safe.
	split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = split[:0]
	op.chunk.Reqs = split
	for _, r := range op.chunk.Reqs {
		// invalidate is nil-safe when the cache is off.
		res.stats.InvalidatedBlocks += s.cache.invalidate(r.VLBN, r.VLBN+int64(r.Count))
	}
	issued := faultReqs
	if len(op.chunk.Reqs) > 0 {
		comps, elapsed, err := s.vol.ServeBatch(op.chunk.Reqs, op.policy)
		if err != nil {
			s.chargeWrite(op, res, issued, err)
			return
		}
		res.stats.addServed(comps, elapsed, &res.stats.Writes)
		issued += len(op.chunk.Reqs)
	}
	s.chargeWrite(op, res, issued, nil)
}

// absorbWrite buffers one write op in the write-back dirty set instead
// of serving it: the submitter is acknowledged immediately with zero
// I/O cost (its blocks in Writes, its invalidation count, and the
// coalesced flag when the op merged into already-dirty data), and the
// simulated I/O is deferred to the next group commit. Cache coherence
// is NOT deferred — every cached extent overlapping the mutated blocks
// is invalidated here, exactly as on the write-through path. Extents
// whose addresses fall outside the volume are routed to the immediate
// write path instead, so address errors surface to the submitter
// synchronously rather than at some later flush. COW coherence is not
// deferred either: target tracks still mapped to shared frozen extents
// are faulted into private storage here, before absorption — the
// address screen runs first (VLBN validity is unaffected by the
// resolve), so the serveWrite fallback never double-charges a fault —
// and the absorbed extents therefore only ever cover private segments,
// which are never re-split, keeping their recorded flush boundaries
// valid at group-commit time.
func (s *Service) absorbWrite(op *serviceOp) {
	screen := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = screen[:0]
	for _, r := range screen {
		if _, _, err := s.vol.Locate(r.VLBN); err != nil {
			s.serveWrite(op)
			return
		}
	}
	var res opResult
	faultReqs, err := s.cowFault(op, &res)
	if err != nil {
		s.chargeWrite(op, opResult{}, 0, err)
		return
	}
	// Split after the resolve: it may have split segments under the
	// target blocks, moving the boundaries the dirty buffer records.
	// Scratch-backed like serveWrite's split: dead once the op replies.
	split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = split[:0]
	op.chunk.Reqs = split
	now := time.Now()
	for _, r := range op.chunk.Reqs {
		start, end := r.VLBN, r.VLBN+int64(r.Count)
		res.stats.InvalidatedBlocks += s.cache.invalidate(start, end) // nil-safe
		di, lbn, _ := s.vol.Locate(start)
		boundary := start - lbn + s.vol.DiskBlocks(di)
		if s.wb.absorb(op.owner, start, end, boundary, now) {
			res.stats.CoalescedWrites = 1
		}
		res.stats.Writes += int64(r.Count)
	}
	s.chargeWrite(op, res, faultReqs, nil)
}

// flushDirty group-commits the entire dirty buffer as one SPTF batch —
// the write-back payoff: every buffered write shares one head
// trajectory instead of paying its own positioning cost. The batch's
// per-extent costs are split among the sessions whose buffered writes
// dirtied the extent, in proportion to the blocks each asked for (the
// same split serveMerged applies to shared read extents), and folded
// into both the sessions' lifetime Totals and Attributed — so summing
// session totals still reproduces Attributed after a flush. Each
// contributing session observes the full batch ElapsedMs and counts
// one FlushBatches (Attributed.FlushBatches grows by the number of
// contributors to keep the sum exact; the top-level
// ServiceTotals.FlushBatches counts actual batches). A flush of an
// empty buffer is free.
func (s *Service) flushDirty() error {
	if s.wb == nil || len(s.wb.extents) == 0 {
		return nil
	}
	extents := s.wb.take()
	reqs := make([]lvm.Request, len(extents))
	for i, e := range extents {
		reqs[i] = lvm.Request{VLBN: e.start, Count: int(e.end - e.start)}
	}
	comps, elapsed, err := s.vol.ServeBatch(reqs, disk.SchedSPTF)
	if err != nil {
		// Unreachable in practice: absorbWrite screens out every address
		// ServeBatch can reject. Coherence survives regardless (the
		// invalidation happened at absorb); only the gauge is corrected.
		s.mu.Lock()
		s.totals.DirtyBlocks = 0
		s.mu.Unlock()
		return err
	}
	// Extents are disjoint, so completions map back by start VLBN.
	compAt := s.scratch.flushComp
	if compAt == nil {
		compAt = make(map[int64]lvm.Completion, len(comps))
		s.scratch.flushComp = compAt
	} else {
		clear(compAt)
	}
	for _, c := range comps {
		compAt[c.Req.VLBN] = c
	}
	perOwner := make(map[*Session]*Stats)
	for i, e := range extents {
		c := compAt[reqs[i].VLBN]
		var asked int64
		for _, n := range e.contribs {
			asked += n
		}
		for owner, n := range e.contribs {
			f := float64(n) / float64(asked)
			st := perOwner[owner]
			if st == nil {
				st = &Stats{}
				perOwner[owner] = st
			}
			// No blocks land in Writes here: they were counted when the
			// write ops that dirtied the extent were absorbed.
			st.addCost(c.Cost.Scaled(f))
		}
	}
	s.mu.Lock()
	t := &s.totals
	t.FlushBatches++
	t.IssuedRequests += int64(len(reqs))
	t.DirtyBlocks = 0
	touched := s.scratch.touched
	clear(touched)
	for owner, st := range perOwner {
		st.FlushBatches = 1
		class := ""
		if owner != nil {
			class = owner.class
		}
		_, dst := s.attributed(class)
		for _, a := range dst {
			a.Accumulate(*st)
		}
		touched[class] = true
	}
	s.addElapsed(touched, elapsed)
	s.mu.Unlock()
	for owner, st := range perOwner {
		st.ElapsedMs = elapsed
		if owner != nil {
			owner.creditFlush(*st)
		}
	}
	return nil
}

// planSingle is a lone chunk's schedule stage: probe the cache,
// counting hits, the cells they covered and misses into res, and return
// the requests that must reach the disks. With the cache off the
// chunk's own request slice is returned untouched; otherwise the
// survivors are collected in the loop's probe buffer, valid until the
// next plan.
func (s *Service) planSingle(op *serviceOp, res *opResult) []lvm.Request {
	if s.cache == nil {
		return op.chunk.Reqs
	}
	kept := s.scratch.kept[:0]
	for _, r := range op.chunk.Reqs {
		if s.cache.covered(r.VLBN, r.VLBN+int64(r.Count)) {
			res.stats.CacheHits++
			res.stats.Cells += int64(r.Count)
			continue
		}
		res.stats.CacheMisses++
		kept = append(kept, r)
	}
	s.scratch.kept = kept[:0] // keep the grown probe buffer
	return kept
}

// serveSingle services a lone chunk verbatim: the planner's requests,
// the chunk's policy, no re-coalescing. With the cache off it is
// bit-identical to serving the chunk through ServeBatch by hand — refRun
// in run_ref_test.go and the fig6probe golden files hold it there.
func (s *Service) serveSingle(op *serviceOp) {
	var res opResult
	reqs := s.planSingle(op, &res)
	var comps []lvm.Completion
	var elapsed float64
	if len(reqs) > 0 {
		var err error
		comps, elapsed, err = s.vol.ServeBatch(reqs, op.policy)
		if err != nil {
			op.reply <- opResult{err: err}
			return
		}
	}
	s.finishSingle(op, res, comps, elapsed)
}

// mergeEntry ties one item's request to its slot in a merged plan.
type mergeEntry struct {
	item int
	req  lvm.Request
}

// mergeScratch is the buffer set a merged plan builds into; the loop
// owns one (svcScratch.merge) and reuses it across batches.
type mergeScratch struct {
	entries []mergeEntry
	reqs    []lvm.Request // the coalesced extents to issue
	// members[k] lists the entry indices merged into extent reqs[k].
	members [][]int
	results []opResult
	compAt  map[int64]lvm.Completion
}

// reset readies the scratch for a plan over n items, reusing every
// backing allocation from earlier plans.
func (sc *mergeScratch) reset(n int) {
	sc.entries = sc.entries[:0]
	sc.reqs = sc.reqs[:0]
	sc.members = sc.members[:0]
	if cap(sc.results) < n {
		sc.results = make([]opResult, n)
	} else {
		sc.results = sc.results[:n]
		clear(sc.results)
	}
}

// pushMember opens extent slot k = len(members) holding one entry
// index, reusing the retained inner slice when one exists.
func (sc *mergeScratch) pushMember(idx int) {
	if n := len(sc.members); n < cap(sc.members) {
		sc.members = sc.members[:n+1]
		sc.members[n] = append(sc.members[n][:0], idx)
		return
	}
	sc.members = append(sc.members, []int{idx})
}

// failAll replies the error to every item of a merged batch.
func failAll(items []*serviceOp, err error) {
	for _, it := range items {
		it.reply <- opResult{err: err}
	}
}

// planMerged is a multi-chunk batch's schedule stage: probe the cache
// per request, coalesce the survivors across queries into shared
// extents (merging overlap and exact adjacency, never across a
// disk-segment boundary), and pick the batch policy — the chunks'
// unanimous policy, or SPTF when the batch mixes policies (cross-query
// order is the drive's to choose). The coalesced extents and per-item
// results are left in the loop's merge scratch for finishMerged.
// Returns ok=false after replying the error to every item when an
// extent fails to locate.
func (s *Service) planMerged(items []*serviceOp) (policy disk.SchedPolicy, ok bool) {
	sc := &s.scratch.merge
	sc.reset(len(items))
	for i, it := range items {
		for _, r := range it.chunk.Reqs {
			if s.cache != nil {
				if s.cache.covered(r.VLBN, r.VLBN+int64(r.Count)) {
					sc.results[i].stats.CacheHits++
					sc.results[i].stats.Cells += int64(r.Count)
					continue
				}
				sc.results[i].stats.CacheMisses++
			}
			sc.entries = append(sc.entries, mergeEntry{item: i, req: r})
		}
	}
	if len(sc.entries) == 0 {
		return items[0].policy, true
	}
	slices.SortStableFunc(sc.entries, func(a, b mergeEntry) int {
		switch {
		case a.req.VLBN != b.req.VLBN:
			if a.req.VLBN < b.req.VLBN {
				return -1
			}
			return 1
		default:
			return a.req.Count - b.req.Count
		}
	})
	var boundary int64 // end VLBN of the current extent's disk segment
	for idx, e := range sc.entries {
		start := e.req.VLBN
		end := start + int64(e.req.Count)
		if n := len(sc.reqs); n > 0 {
			last := &sc.reqs[n-1]
			lastEnd := last.VLBN + int64(last.Count)
			// Merge overlap or exact adjacency, but never across a
			// disk-segment boundary: each original request lies in one
			// segment, so extents clipped to the boundary stay valid.
			if start <= lastEnd && start < boundary {
				if end > lastEnd {
					last.Count = int(end - last.VLBN)
				}
				sc.members[n-1] = append(sc.members[n-1], idx)
				continue
			}
		}
		di, lbn, err := s.vol.Locate(start)
		if err != nil {
			failAll(items, err)
			return policy, false
		}
		boundary = start - lbn + s.vol.DiskBlocks(di)
		sc.reqs = append(sc.reqs, lvm.Request{VLBN: start, Count: e.req.Count})
		sc.pushMember(idx)
	}
	policy = items[0].policy
	for _, it := range items[1:] {
		if it.policy != policy {
			return disk.SchedSPTF, true
		}
	}
	return policy, true
}

// serveMerged coalesces the batch's requests across queries into shared
// extents, serves them as one batch, and splits each served extent's
// cost among its contributors.
func (s *Service) serveMerged(items []*serviceOp) {
	policy, ok := s.planMerged(items)
	if !ok {
		return
	}
	var comps []lvm.Completion
	var elapsed float64
	if reqs := s.scratch.merge.reqs; len(reqs) > 0 {
		var err error
		comps, elapsed, err = s.vol.ServeBatch(reqs, policy)
		if err != nil {
			failAll(items, err)
			return
		}
	}
	s.finishMerged(items, comps, elapsed)
}
