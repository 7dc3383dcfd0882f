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
//	DELETE /v1/stores/{store}                          close the store
//	GET    /v1/stores/{store}/metrics                  Metrics snapshot
//	POST   /v1/pools                                   open a pool (OpenPoolRequest)
//	POST   /v1/stores/{store}/sessions                 begin a session (BeginSessionRequest)
//	GET    /v1/stores/{store}/sessions/{session}       session info + lifetime stats
//	DELETE /v1/stores/{store}/sessions/{session}       close the session (flushes write-back)
//	POST   /v1/stores/{store}/sessions/{session}/beam    {"dim":d,"fixed":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/range   {"lo":[...],"hi":[...]} — streamed
//	POST   /v1/stores/{store}/sessions/{session}/fetch   {"cell":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/insert  {"cell":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/delete  {"cell":[...]}
//	POST   /v1/stores/{store}/sessions/{session}/flush   commit write-back buffers
//	GET    /v1/events                                  SSE event + metrics feed (MetricsResponse frames)
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
// ?deadline_ms= query parameter (or X-Deadline-Ms header; at most one
// hour) becomes a context deadline, which the deadline/QoS-aware
// admission batcher treats as urgency exactly like an embedded caller's.
//
// The counters on the wire are the library's own types — Stats,
// ServiceTotals, ClassTotals, ServiceMetrics, Metrics, RangeChunk,
// DriveUsage — encoded by the json tags on their declarations: those
// tags are the format, and editing one is a protocol change
// (TestWireBytes holds the bytes). This file declares only the
// envelopes and requests around them.
package server

import (
	multimap "repro"
)

// The names bench/ spells the counter types with. A PR outside bench/
// may not edit it, so the names stay, as aliases, and nothing else uses
// them; the [benchmark] PR that decodes into the benchmark's own types
// deletes this block together with engine.Stats.Stats.
type (
	StatsWire         = multimap.Stats
	ChunkWire         = multimap.RangeChunk
	ClassTotWire      = multimap.ClassTotals
	ServiceTotalsWire = multimap.ServiceTotals
	ShardMetricsWire  = multimap.ServiceMetrics
	MetricsWire       = multimap.Metrics
	PoolDriveWire     = multimap.DriveUsage
)

// OpenStoreRequest opens a store over the wire. Disks builds a private
// volume for the store (required unless Pool names an open pool to
// create the dataset in). Each knob field is one of the library's
// functional options (buildOptions); zero values mean "option omitted".
// Every Open and Pool.Create option has its field but WithDiskIdx, so a
// store on its own volume sits on drive 0 and a pool tenant declusters.
type OpenStoreRequest struct {
	Name     string   `json:"name"`
	Disks    []string `json:"disks,omitempty"`
	AdjDepth int      `json:"adj_depth,omitempty"`
	Mapping  string   `json:"mapping"`
	Dims     []int    `json:"dims"`

	ChunkCells        int64               `json:"chunk_cells,omitempty"`
	CacheBlocks       int64               `json:"cache_blocks,omitempty"`
	MaxInflight       int                 `json:"max_inflight,omitempty"`
	Shards            int                 `json:"shards,omitempty"`
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
	Name      string `json:"name"`
	Mapping   string `json:"mapping"`
	Dims      []int  `json:"dims"`
	Shards    int    `json:"shards"`
	Updatable bool   `json:"updatable,omitempty"`
	Pool      string `json:"pool,omitempty"`
	Sessions  int    `json:"sessions"`
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
	Name    string                `json:"name"`
	Tenants []string              `json:"tenants"`
	Usage   []multimap.DriveUsage `json:"usage"`
}

// BeginSessionRequest opens a session; Class selects the QoS class
// (empty = the store's default).
type BeginSessionRequest struct {
	Class string `json:"class,omitempty"`
}

// SessionInfo describes one open session.
type SessionInfo struct {
	Session string         `json:"session"`
	Store   string         `json:"store"`
	Class   string         `json:"class,omitempty"`
	Stats   multimap.Stats `json:"stats"`
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
	Stats multimap.Stats `json:"stats"`
	// Error carries the operation's error (partial-result queries
	// return Stats alongside it); the HTTP status is still 200 when
	// partial Stats are delivered.
	Error string `json:"error,omitempty"`
}

// RangeTrailer closes every range stream: the query's aggregate Stats,
// the error if any (partial results set Stats.Partial alongside it),
// the session's lifetime Stats — the attribution the engine guarantees
// sums to ServiceTotals.Attributed — and the store's per-class totals.
type RangeTrailer struct {
	Stats        multimap.Stats         `json:"stats"`
	Error        string                 `json:"error,omitempty"`
	Chunks       int                    `json:"chunks"`
	SessionStats multimap.Stats         `json:"session_stats"`
	Classes      []multimap.ClassTotals `json:"classes,omitempty"`
}

// StreamLine is one NDJSON line of a range stream: exactly one of
// Chunk or Trailer is set.
type StreamLine struct {
	Chunk   *multimap.RangeChunk `json:"chunk,omitempty"`
	Trailer *RangeTrailer        `json:"trailer,omitempty"`
}

// MetricsResponse is the SSE "metrics" frame of /v1/events: every
// store's snapshot.
type MetricsResponse struct {
	Stores map[string]multimap.Metrics `json:"stores"`
}

// ErrorResponse is the non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
