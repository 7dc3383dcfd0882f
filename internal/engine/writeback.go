package engine

import (
	"slices"
	"sort"
	"time"

	"repro/internal/lvm"
)

// Write-back caching with group commit. With WriteBackOptions.Enabled,
// the service loop no longer charges each write op its own simulated
// I/O: the op's mutated extents are absorbed into a per-service dirty
// buffer (repeated writes to the same extent coalesce), and the whole
// dirty set is later flushed as ONE SPTF-scheduled batch — amortizing
// disk positioning across spatially adjacent writes exactly as the
// paper's SPTF batching amortizes it across reads. A flush happens
// when any of five triggers fires:
//
//   - watermark: the dirty buffer reaches WatermarkBlocks;
//   - interval: the oldest dirty extent has been buffered for
//     FlushInterval (the loop stays alive, sleeping, while dirty data
//     is pending so the interval fires even on an otherwise idle
//     service);
//   - read dependency: an admitted read overlaps a dirty extent — the
//     dirty set is flushed before the read is served, so a read never
//     observes a disk state older than an acknowledged write;
//   - explicit Flush(ctx);
//   - Close (service close drains the dirty set before the loop
//     exits).
//
// Coherence is unchanged from write-through: absorbing a write still
// invalidates every cached read extent overlapping the mutated blocks
// (and a cancelled write still invalidates without being buffered), so
// no stale cached cost can be replayed; the only thing deferred is the
// write's own simulated I/O.
//
// Cost attribution: a write op's submitter is acknowledged at absorb
// time with zero I/O cost; the flush batch's cost is attributed to the
// sessions whose buffered writes it commits, per dirty extent in
// proportion to the blocks each asked for — flushDirty builds the batch
// into a mergeScratch and prices it with mergeScratch.price, the one
// pricer a merged read batch's shared extents go through — and folded
// into Attributed (charge) and their lifetime Totals. Summing session Totals therefore still reproduces
// ServiceTotals.Attributed for issued work, ElapsedMs aside.

// WriteBackOptions tunes the service's write-back buffer; see
// ServiceOptions.WriteBack.
type WriteBackOptions struct {
	// Enabled turns write-back on. Off (the default) serves every
	// write op immediately — bit-identical to the write-through
	// service.
	Enabled bool
	// WatermarkBlocks flushes the dirty buffer when it reaches this
	// many blocks. 0 selects DefaultWriteBackWatermark.
	WatermarkBlocks int64
	// FlushInterval flushes dirty extents this long after they first
	// became dirty, bounding how long an acknowledged write may stay
	// uncommitted. 0 selects DefaultWriteBackInterval.
	FlushInterval time.Duration
}

// Default write-back knobs, applied when the corresponding
// WriteBackOptions field is zero.
const (
	DefaultWriteBackWatermark = int64(4096)
	DefaultWriteBackInterval  = 2 * time.Millisecond
)

// withDefaults fills zero knobs.
func (o WriteBackOptions) withDefaults() WriteBackOptions {
	if o.WatermarkBlocks <= 0 {
		o.WatermarkBlocks = DefaultWriteBackWatermark
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultWriteBackInterval
	}
	return o
}

// dirtyExtent is one buffered run of mutated blocks [start, end),
// clipped to a single disk segment (boundary is the segment's end
// VLBN, so extents never merge across member disks). Its contributions
// record how many blocks each submitting session asked to write here,
// one per session in first-contribution order — re-writes of
// already-dirty blocks count again, mirroring how serveMerged credits
// overlapping readers. Every extent has a first contributor, kept
// inline so that absorbing a single-owner extent allocates nothing;
// more holds the others. since is when the extent first became dirty
// (merging keeps the oldest timestamp, so the interval trigger bounds
// the oldest buffered write).
type dirtyExtent struct {
	start, end int64
	boundary   int64
	since      time.Time
	first      contrib
	more       []contrib
}

// contrib is one session's share of a dirty extent: the blocks its
// buffered writes asked for there.
type contrib struct {
	owner  *Session
	blocks int64
}

// contribs returns how many sessions contributed to the extent.
func (e *dirtyExtent) contribs() int { return 1 + len(e.more) }

// contrib returns the k-th contribution, in first-contribution order.
func (e *dirtyExtent) contrib(k int) contrib {
	if k == 0 {
		return e.first
	}
	return e.more[k-1]
}

// add credits owner with n more blocks of the extent.
func (e *dirtyExtent) add(owner *Session, n int64) {
	if e.first.owner == owner {
		e.first.blocks += n
		return
	}
	for i := range e.more {
		if e.more[i].owner == owner {
			e.more[i].blocks += n
			return
		}
	}
	e.more = append(e.more, contrib{owner, n})
}

// dirtySet is the loop-owned write-back buffer: sorted disjoint dirty
// extents plus the running block total. Only the service loop touches
// it, so it needs no locking of its own.
type dirtySet struct {
	extents []dirtyExtent // ascending by start; disjoint
	blocks  int64
}

// search returns the index of the first extent with start > x.
func (d *dirtySet) search(x int64) int {
	return sort.Search(len(d.extents), func(i int) bool { return d.extents[i].start > x })
}

// overlaps reports whether any request intersects a dirty extent — the
// read-dependency probe.
func (d *dirtySet) overlaps(reqs []lvm.Request) bool {
	if len(d.extents) == 0 {
		return false
	}
	for _, r := range reqs {
		start, end := r.VLBN, r.VLBN+int64(r.Count)
		i := d.search(start) - 1
		if i >= 0 && d.extents[i].end > start {
			return true
		}
		if i+1 < len(d.extents) && d.extents[i+1].start < end {
			return true
		}
	}
	return false
}

// absorb merges one segment-clipped mutated extent into the buffer on
// behalf of owner, returning whether it coalesced with (overlapped or
// sat adjacent to) an already-dirty extent in the same segment.
// Adjacent extents from different segments stay separate — each flush
// request must lie within one member disk. A write that coalesces
// grows the first extent it touches in place, folding the others into
// it.
func (d *dirtySet) absorb(owner *Session, start, end, boundary int64, now time.Time) bool {
	if end <= start {
		return false
	}
	lo := d.search(start - 1)
	if lo > 0 && d.extents[lo-1].end >= start && d.extents[lo-1].boundary == boundary {
		lo--
	}
	hi := lo
	for hi < len(d.extents) && d.extents[hi].start <= end && d.extents[hi].boundary == boundary {
		hi++
	}
	if hi == lo {
		d.extents = slices.Insert(d.extents, lo, dirtyExtent{
			start: start, end: end, boundary: boundary, since: now,
			first: contrib{owner, end - start},
		})
		d.blocks += end - start
		return false
	}
	m := &d.extents[lo]
	d.blocks -= m.end - m.start
	for i := lo + 1; i < hi; i++ {
		e := &d.extents[i]
		d.blocks -= e.end - e.start
		m.end = max(m.end, e.end)
		if e.since.Before(m.since) {
			m.since = e.since
		}
		for k := 0; k < e.contribs(); k++ {
			c := e.contrib(k)
			m.add(c.owner, c.blocks)
		}
	}
	m.start, m.end = min(m.start, start), max(m.end, end)
	if now.Before(m.since) {
		m.since = now
	}
	m.add(owner, end-start)
	d.extents = slices.Delete(d.extents, lo+1, hi)
	d.blocks += m.end - m.start
	return true
}

// oldest returns the earliest since timestamp of a dirty extent; ok is
// false on an empty buffer.
func (d *dirtySet) oldest() (time.Time, bool) {
	var t time.Time
	ok := false
	for _, e := range d.extents {
		if !ok || e.since.Before(t) {
			t, ok = e.since, true
		}
	}
	return t, ok
}

// take empties the buffer and returns its extents in ascending VLBN
// order — the group-commit batch to be flushed. The buffer keeps the
// backing array for the next absorb unless it grew past keepFlush
// extents, so the extents are valid until then.
func (d *dirtySet) take() []dirtyExtent {
	out := d.extents
	d.extents = nil
	if cap(out) <= keepFlush {
		d.extents = out[:0]
	}
	d.blocks = 0
	return out
}

// keepFlush bounds the group commits whose buffers the loop keeps for
// the next one: a flush of up to 4096 extents (the default watermark)
// allocates its own rather than pinning that much between flushes.
const keepFlush = 256
