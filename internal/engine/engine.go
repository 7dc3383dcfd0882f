// Package engine is the shared execution engine behind every query
// layer: it owns the plan → dispatch → schedule → aggregate pipeline.
//
// A planner (the storage manager in internal/query, the octree and OLAP
// dataset stores, or a tool with a prepared request batch) produces a
// Plan: a stream of request Chunks, each carrying the issue policy the
// paper's storage manager would choose for it (§5.2). A Session drains
// the plan chunk by chunk through its volume's Service — whose member
// disks service their sub-batches concurrently and apply the
// drive-internal scheduler (SPTF, or arrival order under FIFO) — prices
// each chunk once, as a Stats, and sums those into the query's. Layers
// therefore share one serve-and-sum loop instead of each hand-rolling
// its own, and a planner can yield a large query in bounded-memory
// chunks instead of materializing every block up front.
//
// There is one runner. The Service runs a per-volume loop goroutine
// that owns all disk head state: a Session plans on its caller's
// goroutine and submits plan chunks over the loop's queue (chunk N+1 is
// planned while chunk N is on the disks), the loop merges everything
// queued since its last pass into one admission batch (cross-query
// coalescing into shared SPTF extents), serves it, and prices each op —
// its own requests, its share of the shared ones — as the Stats it both
// folds into its totals and answers the session with. An optional
// shared extent cache (LRU over coalesced [lbn, lbn+count) extents) lets
// overlapping queries skip re-simulated I/O, with hit/miss accounting
// in Stats. The paper's own configuration — one caller, every option
// off — is OnVolume: a lone session on a fresh service.
package engine

import (
	"context"
	"errors"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// Stats summarizes the I/O work of one query. The json tags are the
// daemon's wire format (internal/server/wire.go): editing one is a
// protocol change.
type Stats struct {
	Cells      int64   `json:"cells"`             // useful cells fetched (excludes bridged padding)
	Padding    int64   `json:"padding,omitempty"` // padding blocks read and discarded by gap bridging
	Requests   int     `json:"requests"`          // I/O requests issued after coalescing
	TotalMs    float64 `json:"total_ms"`          // summed service time across disks
	ElapsedMs  float64 `json:"elapsed_ms"`        // wall-clock time (disks work in parallel)
	CommandMs  float64 `json:"command_ms,omitempty"`
	SeekMs     float64 `json:"seek_ms,omitempty"`
	RotateMs   float64 `json:"rotate_ms,omitempty"`
	TransferMs float64 `json:"transfer_ms,omitempty"`
	// CacheHits counts requests served entirely from the service's
	// shared extent cache (no disk I/O); CacheMisses counts requests
	// that reached the disks. Both stay zero with the cache disabled.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Writes counts blocks written through the service's write path
	// (Session.Write); write I/O requests fold into Requests and their
	// simulated time into TotalMs/ElapsedMs like reads, while written
	// blocks stay out of Cells. Note that on a mixed workload MsPerCell
	// therefore spreads total I/O time — write time included — over the
	// read cells only.
	Writes int64 `json:"writes,omitempty"`
	// InvalidatedBlocks counts cached blocks dropped by write-aware
	// invalidation on behalf of this query's writes.
	InvalidatedBlocks int64 `json:"invalidated_blocks,omitempty"`
	// CoalescedWrites counts write ops of this session that the
	// write-back buffer absorbed into an already-dirty extent
	// (overlapping or adjacent), so they will share one group-commit
	// I/O with the writes already buffered there. Zero with write-back
	// off.
	CoalescedWrites int64 `json:"coalesced_writes,omitempty"`
	// FlushBatches counts group-commit flushes that carried buffered
	// writes of this session. Like ElapsedMs, a flush shared by several
	// sessions is observed by each of them, so summed session counters
	// can exceed the service's own ServiceTotals.FlushBatches.
	FlushBatches int64 `json:"flush_batches,omitempty"`
	// Cancelled and DeadlineExceeded count this query's operations
	// (plan chunks or write ops) dropped because their context was
	// cancelled or had passed its deadline — either by the service
	// before admission, or by the submitter before the op was queued
	// (a session aborting between planner chunks). Dropped operations
	// are never issued to the disks and charge no simulated I/O, so
	// everything else in a partial Stats still sums to
	// ServiceTotals.Attributed for the work that WAS issued.
	Cancelled        int64 `json:"cancelled,omitempty"`
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty"`
	// CowFaultBlocks counts blocks this query's writes faulted out of
	// shared copy-on-write extents: each first write to a frozen track
	// (snapshotted parent, or clone) reads the track at its shared
	// location and remaps it onto a private extent before the write's
	// own I/O. The fault copy's blocks also land in Writes and its I/O
	// time in the usual cost fields, attributed to the writing session.
	// Zero on volumes never snapshotted or cloned.
	CowFaultBlocks int64 `json:"cow_fault_blocks,omitempty"`
	// Partial marks a speculative partial result: the query's context
	// expired (or was cancelled) mid-plan, and these Stats carry the
	// cells already aggregated rather than the full box — returned
	// alongside the context error instead of discarding the work. Folded
	// with OR by Accumulate, so a session's lifetime totals record
	// whether any query returned partial data.
	Partial bool `json:"partial,omitempty"`
}

// Stats returns s. It exists only for bench/, which a PR outside it may
// not edit and which still calls a Stats() conversion on the Stats
// values it decodes from the wire (server.StatsWire is an alias of this
// type). Nothing else may call it; the [benchmark] PR that decodes into
// the benchmark's own types deletes it together with the server's
// *Wire alias names.
func (s Stats) Stats() Stats { return s }

// MsPerCell returns the paper's headline metric: average I/O time per
// cell, including initial positioning (§5.3).
func (s Stats) MsPerCell() float64 {
	if s.Cells == 0 {
		return 0
	}
	return s.TotalMs / float64(s.Cells)
}

// addCost folds one served request's service time into the running
// totals — the one cost fold every path goes through, whole requests and
// disk.AccessCost.Scaled shares alike. The blocks it moved are the
// caller's to count: Cells for a read, Writes for a write, nothing for
// a group commit's share (counted in Writes when it was absorbed).
func (s *Stats) addCost(c disk.AccessCost) {
	s.Requests++
	s.TotalMs += c.TotalMs()
	s.CommandMs += c.CommandMs
	s.SeekMs += c.SeekMs
	s.RotateMs += c.RotateMs
	s.TransferMs += c.TransferMs
}

// addServed folds one served batch into the running totals, counting
// its blocks into *blocks — s.Cells for reads, s.Writes for writes.
func (s *Stats) addServed(comps []lvm.Completion, elapsed float64, blocks *int64) {
	for _, c := range comps {
		s.addCost(c.Cost)
		*blocks += int64(c.Req.Count)
	}
	s.ElapsedMs += elapsed
}

// AddCompletions folds one served read batch into the running totals.
func (s *Stats) AddCompletions(comps []lvm.Completion, elapsed float64) {
	s.addServed(comps, elapsed, &s.Cells)
}

// Chunk is one dispatch window of planned requests.
type Chunk struct {
	Reqs []lvm.Request
	// Policy is the drive-internal scheduling policy to issue under.
	Policy disk.SchedPolicy
	// Padding counts blocks in Reqs read only to bridge small gaps.
	Padding int64
}

// Plan is a streaming source of request chunks. Next returns ok=false
// once the plan is exhausted.
type Plan interface {
	Next() (c Chunk, ok bool, err error)
}

// staticPlan serves one prepared batch as a single chunk.
type staticPlan struct {
	chunk Chunk
	done  bool
}

func (p *staticPlan) Next() (Chunk, bool, error) {
	if p.done {
		return Chunk{}, false, nil
	}
	p.done = true
	return p.chunk, true, nil
}

// Static wraps a prepared request batch as a single-chunk plan.
func Static(reqs []lvm.Request, policy disk.SchedPolicy) Plan {
	return &staticPlan{chunk: Chunk{Reqs: reqs, Policy: policy}}
}

// Options tunes one execution.
type Options struct {
	// Policy, when non-nil, overrides every chunk's issue policy — the
	// knob behind comparison runs (e.g. forcing FIFO under a
	// MultiMap plan). Nil keeps the planner's choice.
	Policy *disk.SchedPolicy
	// OnChunk, when set, receives each served chunk's own Stats as the
	// chunk retires, in chunk order — the very value the query's total
	// accumulates, so the hook changes nothing about how that total is
	// summed. It is the hook behind wire-level result streaming: a
	// network front-end ships every retired chunk to its client while
	// later chunks are still being planned and served. Invoked from the
	// goroutine that called RunPlan (never concurrently for one query);
	// dropped chunks (cancellation, deadline) invoke nothing.
	OnChunk func(Stats)
}

// countContextErr folds one dropped (never-issued) operation into the
// cancellation counters, classifying by the context error.
func (s *Stats) countContextErr(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.DeadlineExceeded++
	} else if errors.Is(err, context.Canceled) {
		s.Cancelled++
	}
}
