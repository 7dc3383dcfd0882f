package engine

// The service loop — SCHEDULE + COHERENCE + SIMULATE stage (service.go
// maps the stages). One admitted batch is served here: reads probe the
// extent cache and coalesce across queries into shared extents, writes
// fault COW tracks, invalidate, and are served or absorbed into the
// dirty buffer, and whatever must reach the disks goes through
// lvm.Volume.ServeBatch. Runs on the loop goroutine only. It may touch
// the extent cache, the dirty buffer, the volume's COW state and the
// scratch buffers, and nothing else moves the disks' heads. Results leave through the finish*/chargeWrite folds in
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
	flush         flushScratch // flushDirty's buffers
}

// flushScratch is the buffer set a group commit builds into: the
// batch's requests and each contributing session's share in
// first-contribution order (shareOf indexes shares).
type flushScratch struct {
	reqs    []lvm.Request
	shares  []ownerShare
	shareOf map[*Session]int
}

// ownerShare is one session's part of a group commit's cost.
type ownerShare struct {
	owner *Session
	st    Stats
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
		s.serveWrite(op)
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
	comps, elapsed, err := s.vol.ServeBatch(spans, op.chunk.Policy)
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
//
// With write-back on, a write whose every extent locates on the volume
// is absorbed into the dirty buffer instead of served: the submitter is
// acknowledged with zero I/O cost (its blocks in Writes, its
// invalidation count, and the coalesced flag when the op merged into
// already-dirty data, plus any COW fault it paid) and the simulated I/O
// waits for the next group commit. Coherence is not deferred: the
// invalidation and the COW fault have happened, so the absorbed extents
// only ever cover private segments, which are never re-split, and their
// recorded flush boundaries stay valid at group-commit time. A write
// with an address outside the volume is served instead — VLBN validity
// does not change across the resolve — so the error reaches the
// submitter now rather than at some later flush.
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
	absorb := s.wb != nil
	for _, r := range op.chunk.Reqs {
		// invalidate is nil-safe when the cache is off.
		res.stats.InvalidatedBlocks += s.cache.invalidate(r.VLBN, r.VLBN+int64(r.Count))
		if absorb {
			_, _, err := s.vol.Locate(r.VLBN)
			absorb = err == nil
		}
	}
	if absorb {
		now := time.Now()
		for _, r := range op.chunk.Reqs {
			di, lbn, _ := s.vol.Locate(r.VLBN)
			if s.wb.absorb(op.owner, r.VLBN, r.VLBN+int64(r.Count), r.VLBN-lbn+s.vol.DiskBlocks(di), now) {
				res.stats.CoalescedWrites = 1
			}
			res.stats.Writes += int64(r.Count)
		}
		s.chargeWrite(op, res, faultReqs, nil)
		return
	}
	issued := faultReqs
	if len(op.chunk.Reqs) > 0 {
		comps, elapsed, err := s.vol.ServeBatch(op.chunk.Reqs, op.chunk.Policy)
		if err != nil {
			s.chargeWrite(op, res, issued, err)
			return
		}
		res.stats.addServed(comps, elapsed, &res.stats.Writes)
		issued += len(op.chunk.Reqs)
	}
	s.chargeWrite(op, res, issued, nil)
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
	defer clear(extents) // the buffer keeps the array; drop the sessions it names
	fs := &s.scratch.flush
	reqs := fs.reqs[:0]
	for _, e := range extents {
		reqs = append(reqs, lvm.Request{VLBN: e.start, Count: int(e.end - e.start)})
	}
	fs.reqs = reqs
	comps, elapsed, err := s.vol.ServeBatch(reqs, disk.SchedSPTF)
	if err != nil {
		// Unreachable in practice: serveWrite absorbs no address
		// ServeBatch can reject. Coherence survives regardless (the
		// invalidation happened at absorb); only the gauge is corrected.
		s.mu.Lock()
		s.totals.DirtyBlocks = 0
		s.mu.Unlock()
		return err
	}
	// The extents ascend and are disjoint: sorted by VLBN, completion i
	// answers extent i.
	sortByVLBN(comps)
	if fs.shareOf == nil {
		fs.shareOf = make(map[*Session]int)
	} else {
		clear(fs.shareOf)
	}
	shares := fs.shares[:0]
	for i, e := range extents {
		c := comps[i]
		var asked int64
		for k := 0; k < e.contribs(); k++ {
			asked += e.contrib(k).blocks
		}
		for k := 0; k < e.contribs(); k++ {
			ct := e.contrib(k)
			k, ok := fs.shareOf[ct.owner]
			if !ok {
				k = len(shares)
				fs.shareOf[ct.owner] = k
				shares = append(shares, ownerShare{owner: ct.owner})
			}
			// No blocks land in Writes here: they were counted when the
			// write ops that dirtied the extent were absorbed.
			shares[k].st.addCost(c.Cost.Scaled(float64(ct.blocks) / float64(asked)))
		}
	}
	fs.shares = shares
	s.mu.Lock()
	t := &s.totals
	t.FlushBatches++
	t.IssuedRequests += int64(len(reqs))
	t.DirtyBlocks = 0
	touched := s.scratch.touched
	clear(touched)
	for i := range shares {
		sh := &shares[i]
		sh.st.FlushBatches = 1
		class := ""
		if sh.owner != nil {
			class = sh.owner.class
		}
		_, dst := s.attributed(class)
		for _, a := range dst {
			a.Accumulate(sh.st)
		}
		touched[class] = true
	}
	s.addElapsed(touched, elapsed)
	s.mu.Unlock()
	for i := range shares {
		sh := &shares[i]
		sh.st.ElapsedMs = elapsed
		if sh.owner != nil {
			sh.owner.creditFlush(sh.st)
		}
	}
	clear(shares) // drop the session pointers; the array stays
	if cap(reqs) > keepFlush {
		fs.reqs = nil
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
// in run_ref_test.go and the figure goldens in internal/experiments
// hold it there.
func (s *Service) serveSingle(op *serviceOp) {
	var res opResult
	reqs := s.planSingle(op, &res)
	var comps []lvm.Completion
	var elapsed float64
	if len(reqs) > 0 {
		var err error
		comps, elapsed, err = s.vol.ServeBatch(reqs, op.chunk.Policy)
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
		return items[0].chunk.Policy, true
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
	policy = items[0].chunk.Policy
	for _, it := range items[1:] {
		if it.chunk.Policy != policy {
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
