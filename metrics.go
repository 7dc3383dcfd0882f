package multimap

import "time"

// ServiceMetrics is one shard service's slice of a Metrics snapshot.
type ServiceMetrics struct {
	// Shard is the service's shard index (0 on an unsharded store).
	Shard int `json:"shard"`
	// QueueDepth is the admission backlog: operations queued at the
	// service loop awaiting admission at snapshot time (a gauge).
	QueueDepth int `json:"queue_depth"`
	// Totals is the service's lifetime bookkeeping — admission batches,
	// merged-batch and max-batch evidence, issued requests, write and
	// flush counters, and the attributed Stats ground truth.
	Totals ServiceTotals `json:"totals"`
}

// Metrics is a lock-cheap point-in-time snapshot of a store's serving
// state, aggregated across its shard services — the data behind the
// daemon's /v1/events feed. Taking a snapshot never blocks the
// admission path: every component is a mutex-guarded read of counters
// the services already maintain, plus a walk of the store's lock-free
// latency histogram.
type Metrics struct {
	// QueueDepth sums the per-shard admission backlogs.
	QueueDepth int `json:"queue_depth"`
	// CacheHitRate is hits/(hits+misses) over the summed attributed
	// cache counters, 0 when no cache-eligible request has been served.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Queries counts completed queries (Beam, RangeQuery, FetchCell —
	// streamed or not) since the store opened, as the store's latency
	// histogram records them.
	Queries int64 `json:"queries"`
	// LatencyP50Ms and LatencyP99Ms are host-latency percentiles over
	// every query completed since the store opened (zero until the first
	// completes). Each is the midpoint of its histogram bucket, within
	// 1/32 of the latency at that rank plus 1 µs.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	// Totals sums the per-shard service totals (MaxBatchChunks takes
	// the maximum; Attributed accumulates).
	Totals ServiceTotals `json:"totals"`
	// Shards holds one entry per shard service, in shard order.
	Shards []ServiceMetrics `json:"shards"`
	// Classes is the per-QoS-class bookkeeping merged across shards and
	// sorted by class name (see Store.ClassTotals).
	Classes []ClassTotals `json:"classes,omitempty"`
}

// Metrics snapshots the store's serving state: per-service queue depth
// and totals, group-wide sums, per-class totals, cache hit rate, and
// completed-query latency percentiles. Safe to call concurrently with
// live traffic from any goroutine; see Metrics for what each field
// means.
func (s *Store) Metrics() Metrics {
	depths := s.grp.QueueDepths()
	totals := s.grp.ServiceTotals()
	m := Metrics{
		Shards:  make([]ServiceMetrics, len(totals)),
		Classes: s.grp.ClassTotals(),
	}
	for i, t := range totals {
		m.Shards[i] = ServiceMetrics{Shard: i, QueueDepth: depths[i], Totals: t}
		m.QueueDepth += depths[i]
		m.Totals.Accumulate(t)
	}
	if probes := m.Totals.Attributed.CacheHits + m.Totals.Attributed.CacheMisses; probes > 0 {
		m.CacheHitRate = float64(m.Totals.Attributed.CacheHits) / float64(probes)
	}
	m.Queries, m.LatencyP50Ms, m.LatencyP99Ms = s.lat.Snapshot()
	return m
}

// recordQueryLatency folds one completed query's host latency into the
// store's latency histogram. Called from the public session operations
// on success only — cancelled or failed queries are counted by the
// cancellation counters instead, so the percentiles describe queries
// that actually delivered their result.
func (s *Store) recordQueryLatency(start time.Time) {
	s.lat.Record(time.Since(start).Seconds() * 1e3)
}
