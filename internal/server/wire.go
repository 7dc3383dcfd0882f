// Package server is the network daemon front-end: it exposes the
// multimap session API over HTTP so many remote clients multiplex onto
// the embedded library's admission batcher — the cross-query
// coalescing and weighted-fair scheduling work best when request
// streams are dense, and the wire is where dense streams come from.
//
// The protocol is JSON over stdlib net/http (no new module deps):
//
//	GET    /v1/stores                                  list open stores
//	POST   /v1/stores                                  open a store (OpenStoreRequest)
//	GET    /v1/stores/{store}                          store info
//	DELETE /v1/stores/{store}                          close the store
//	GET    /v1/stores/{store}/metrics                  Metrics snapshot
//	POST   /v1/pools                                   open a pool (OpenPoolRequest)
//	GET    /v1/pools                                   list pools with drive usage
//	POST   /v1/stores/{store}/sessions                 begin a session (BeginSessionRequest)
//	GET    /v1/stores/{store}/sessions/{session}       session info + lifetime stats
//	DELETE /v1/stores/{store}/sessions/{session}       close the session (flushes write-back)
//	POST   /v1/stores/{store}/sessions/{session}/beam    {"dim":d,"fixed":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/range   {"lo":[...],"hi":[...]} — streamed
//	POST   /v1/stores/{store}/sessions/{session}/fetch   {"cell":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/insert  {"cell":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/delete  {"cell":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/flush   commit write-back buffers
//	GET    /v1/metrics                                 one snapshot of every store
//	GET    /v1/events                                  SSE event + metrics feed
//
// Range queries stream: the response is application/x-ndjson, one JSON
// line per retired plan chunk ({"chunk":{...}}) flushed to the client
// as the engine retires it — the streaming planner's chunks go over the
// wire instead of buffering the query — followed by exactly one
// {"trailer":{...}} line carrying the query's aggregate Stats, the
// session's lifetime Stats, and the store's per-class totals.
//
// Cancellation and deadlines propagate from the wire into the engine: a
// client disconnect cancels the request's context (the engine drops the
// query's queued chunks and counts them in Stats.Cancelled), and a
// ?deadline_ms= query parameter (or X-Deadline-Ms header) becomes a
// context deadline, which the deadline/QoS-aware admission batcher
// treats as urgency exactly like an embedded caller's.
package server

import (
	multimap "repro"
)

// StatsWire is engine Stats in wire form (snake_case, omitempty on the
// feature counters so idle fields stay off the wire).
type StatsWire struct {
	Cells             int64   `json:"cells"`
	Padding           int64   `json:"padding,omitempty"`
	Requests          int     `json:"requests"`
	TotalMs           float64 `json:"total_ms"`
	ElapsedMs         float64 `json:"elapsed_ms"`
	CommandMs         float64 `json:"command_ms,omitempty"`
	SeekMs            float64 `json:"seek_ms,omitempty"`
	RotateMs          float64 `json:"rotate_ms,omitempty"`
	TransferMs        float64 `json:"transfer_ms,omitempty"`
	CacheHits         int64   `json:"cache_hits,omitempty"`
	CacheMisses       int64   `json:"cache_misses,omitempty"`
	Writes            int64   `json:"writes,omitempty"`
	InvalidatedBlocks int64   `json:"invalidated_blocks,omitempty"`
	CoalescedWrites   int64   `json:"coalesced_writes,omitempty"`
	FlushBatches      int64   `json:"flush_batches,omitempty"`
	Cancelled         int64   `json:"cancelled,omitempty"`
	DeadlineExceeded  int64   `json:"deadline_exceeded,omitempty"`
	CowFaultBlocks    int64   `json:"cow_fault_blocks,omitempty"`
	Partial           bool    `json:"partial,omitempty"`
}

func statsWire(st multimap.Stats) StatsWire {
	return StatsWire{
		Cells: st.Cells, Padding: st.Padding, Requests: st.Requests,
		TotalMs: st.TotalMs, ElapsedMs: st.ElapsedMs,
		CommandMs: st.CommandMs, SeekMs: st.SeekMs,
		RotateMs: st.RotateMs, TransferMs: st.TransferMs,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		Writes:            st.Writes,
		InvalidatedBlocks: st.InvalidatedBlocks,
		CoalescedWrites:   st.CoalescedWrites,
		FlushBatches:      st.FlushBatches,
		Cancelled:         st.Cancelled,
		DeadlineExceeded:  st.DeadlineExceeded,
		CowFaultBlocks:    st.CowFaultBlocks,
		Partial:           st.Partial,
	}
}

// OpenStoreRequest opens a store over the wire. Disks builds a private
// volume for the store (required unless Pool names an open pool to
// create the dataset in). The knob fields mirror the library's
// functional options one-to-one; zero values mean "option omitted".
type OpenStoreRequest struct {
	Name     string   `json:"name"`
	Disks    []string `json:"disks,omitempty"`
	AdjDepth int      `json:"adj_depth,omitempty"`
	Mapping  string   `json:"mapping"`
	Dims     []int    `json:"dims"`

	Policy            string              `json:"policy,omitempty"`
	ChunkCells        int64               `json:"chunk_cells,omitempty"`
	CacheBlocks       int64               `json:"cache_blocks,omitempty"`
	MaxInflight       int                 `json:"max_inflight,omitempty"`
	Shards            int                 `json:"shards,omitempty"`
	BatchWindowUs     int64               `json:"batch_window_us,omitempty"`
	DeadlineAgingUs   int64               `json:"deadline_aging_us,omitempty"`
	WriteBack         bool                `json:"write_back,omitempty"`
	WBWatermarkBlocks int64               `json:"wb_watermark_blocks,omitempty"`
	WBIntervalUs      int64               `json:"wb_interval_us,omitempty"`
	FairQuantum       int64               `json:"fair_quantum,omitempty"`
	Classes           []multimap.QoSClass `json:"classes,omitempty"`
	DefaultClass      string              `json:"default_class,omitempty"`
	Updatable         bool                `json:"updatable,omitempty"`

	// Pool-tenant placement (Pool names an open pool; the rest are
	// forwarded to Pool.Create).
	Pool           string `json:"pool,omitempty"`
	CapacityBlocks int64  `json:"capacity_blocks,omitempty"`
	Drives         []int  `json:"drives,omitempty"`
}

// StoreInfo describes one open store.
type StoreInfo struct {
	Name       string `json:"name"`
	Mapping    string `json:"mapping"`
	Dims       []int  `json:"dims"`
	Shards     int    `json:"shards"`
	CellBlocks int    `json:"cell_blocks"`
	Updatable  bool   `json:"updatable,omitempty"`
	Pool       string `json:"pool,omitempty"`
	Sessions   int    `json:"sessions"`
}

// OpenPoolRequest opens a multi-tenant volume pool over the wire.
type OpenPoolRequest struct {
	Name           string   `json:"name"`
	Drives         []string `json:"drives"`
	AdjDepth       int      `json:"adj_depth,omitempty"`
	AutoGrowBlocks int64    `json:"auto_grow_blocks,omitempty"`
}

// PoolInfo describes one open pool.
type PoolInfo struct {
	Name    string          `json:"name"`
	Tenants []string        `json:"tenants"`
	Usage   []PoolDriveWire `json:"usage"`
}

// PoolDriveWire is one pool drive's usage row.
type PoolDriveWire struct {
	Name            string `json:"name"`
	TotalBlocks     int64  `json:"total_blocks"`
	FreeBlocks      int64  `json:"free_blocks"`
	AutoGrownBlocks int64  `json:"auto_grown_blocks,omitempty"`
}

// BeginSessionRequest opens a session; Class selects the QoS class
// (empty = the store's default).
type BeginSessionRequest struct {
	Class string `json:"class,omitempty"`
}

// SessionInfo describes one open session.
type SessionInfo struct {
	Session string    `json:"session"`
	Store   string    `json:"store"`
	Class   string    `json:"class,omitempty"`
	Stats   StatsWire `json:"stats"`
}

// BeamRequest runs a beam query.
type BeamRequest struct {
	Dim   int   `json:"dim"`
	Fixed []int `json:"fixed"`
}

// RangeRequest runs a (streamed) range query over [lo, hi).
type RangeRequest struct {
	Lo []int `json:"lo"`
	Hi []int `json:"hi"`
}

// CellRequest addresses one cell (fetch, insert, delete).
type CellRequest struct {
	Cell []int `json:"cell"`
}

// StatsResponse is the plain (non-streamed) operation result.
type StatsResponse struct {
	Stats StatsWire `json:"stats"`
	// Error carries the operation's error (partial-result queries
	// return Stats alongside it); the HTTP status is still 200 when
	// partial Stats are delivered.
	Error string `json:"error,omitempty"`
}

// ChunkWire is one streamed range-query chunk: the chunk's own Stats
// delta in cell units, the shard that served it, and the delivery
// sequence.
type ChunkWire struct {
	Seq   int       `json:"seq"`
	Shard int       `json:"shard"`
	Stats StatsWire `json:"stats"`
}

// RangeTrailer closes every range stream: the query's aggregate Stats,
// the error if any (partial results set Stats.Partial alongside it),
// the session's lifetime Stats — the attribution the engine guarantees
// sums to ServiceTotals.Attributed — and the store's per-class totals.
type RangeTrailer struct {
	Stats        StatsWire      `json:"stats"`
	Error        string         `json:"error,omitempty"`
	Chunks       int            `json:"chunks"`
	SessionStats StatsWire      `json:"session_stats"`
	Classes      []ClassTotWire `json:"classes,omitempty"`
}

// StreamLine is one NDJSON line of a range stream: exactly one of
// Chunk or Trailer is set.
type StreamLine struct {
	Chunk   *ChunkWire    `json:"chunk,omitempty"`
	Trailer *RangeTrailer `json:"trailer,omitempty"`
}

// ClassTotWire is one QoS class's totals row.
type ClassTotWire struct {
	Class      string    `json:"class"`
	Ops        int64     `json:"ops"`
	UrgentOps  int64     `json:"urgent_ops,omitempty"`
	Deferred   int64     `json:"deferred,omitempty"`
	Attributed StatsWire `json:"attributed"`
}

func classWire(cts []multimap.ClassTotals) []ClassTotWire {
	out := make([]ClassTotWire, len(cts))
	for i, ct := range cts {
		out[i] = ClassTotWire{
			Class: ct.Class, Ops: ct.Ops, UrgentOps: ct.UrgentOps,
			Deferred: ct.Deferred, Attributed: statsWire(ct.Attributed),
		}
	}
	return out
}

// ServiceTotalsWire is ServiceTotals in wire form.
type ServiceTotalsWire struct {
	Batches           int64     `json:"batches"`
	MergedBatches     int64     `json:"merged_batches"`
	MaxBatchChunks    int       `json:"max_batch_chunks"`
	IssuedRequests    int64     `json:"issued_requests"`
	WriteOps          int64     `json:"write_ops,omitempty"`
	InvalidatedBlocks int64     `json:"invalidated_blocks,omitempty"`
	FlushBatches      int64     `json:"flush_batches,omitempty"`
	CoalescedWrites   int64     `json:"coalesced_writes,omitempty"`
	DirtyBlocks       int64     `json:"dirty_blocks,omitempty"`
	Cancelled         int64     `json:"cancelled,omitempty"`
	DeadlineExceeded  int64     `json:"deadline_exceeded,omitempty"`
	Attributed        StatsWire `json:"attributed"`
}

func totalsWire(t multimap.ServiceTotals) ServiceTotalsWire {
	return ServiceTotalsWire{
		Batches: t.Batches, MergedBatches: t.MergedBatches,
		MaxBatchChunks: t.MaxBatchChunks, IssuedRequests: t.IssuedRequests,
		WriteOps: t.WriteOps, InvalidatedBlocks: t.InvalidatedBlocks,
		FlushBatches: t.FlushBatches, CoalescedWrites: t.CoalescedWrites,
		DirtyBlocks: t.DirtyBlocks, Cancelled: t.Cancelled,
		DeadlineExceeded: t.DeadlineExceeded,
		Attributed:       statsWire(t.Attributed),
	}
}

// ShardMetricsWire is one shard service's metrics row.
type ShardMetricsWire struct {
	Shard      int               `json:"shard"`
	QueueDepth int               `json:"queue_depth"`
	Totals     ServiceTotalsWire `json:"totals"`
}

// MetricsWire is one store's Metrics snapshot on the wire — queue
// depths, admission batch evidence, cache hit rate, flush counters,
// and completed-query latency percentiles.
type MetricsWire struct {
	QueueDepth   int                `json:"queue_depth"`
	CacheHitRate float64            `json:"cache_hit_rate"`
	Queries      int64              `json:"queries"`
	LatencyP50Ms float64            `json:"latency_p50_ms"`
	LatencyP99Ms float64            `json:"latency_p99_ms"`
	Totals       ServiceTotalsWire  `json:"totals"`
	Shards       []ShardMetricsWire `json:"shards"`
	Classes      []ClassTotWire     `json:"classes,omitempty"`
}

func metricsWire(m multimap.Metrics) MetricsWire {
	w := MetricsWire{
		QueueDepth:   m.QueueDepth,
		CacheHitRate: m.CacheHitRate,
		Queries:      m.Queries,
		LatencyP50Ms: m.LatencyP50Ms,
		LatencyP99Ms: m.LatencyP99Ms,
		Totals:       totalsWire(m.Totals),
		Shards:       make([]ShardMetricsWire, len(m.Shards)),
		Classes:      classWire(m.Classes),
	}
	for i, sm := range m.Shards {
		w.Shards[i] = ShardMetricsWire{Shard: sm.Shard, QueueDepth: sm.QueueDepth, Totals: totalsWire(sm.Totals)}
	}
	return w
}

// MetricsResponse is the /v1/metrics document: every store's snapshot.
type MetricsResponse struct {
	Stores map[string]MetricsWire `json:"stores"`
}

// ErrorResponse is the non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
