package engine

import (
	"math"
	"slices"
	"sync"
)

// QueueDepth reports how many operations are queued at the service
// awaiting admission — the live backlog gauge behind the daemon's
// metrics feed. It is a point-in-time snapshot under the service mutex
// (two loads and a slice length), cheap enough to poll from a metrics
// ticker without perturbing the admission path.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// LatencyRing is a lock-cheap ring of recent latency observations in
// host milliseconds. Producers call Record on every completed query —
// a mutex-guarded store into a fixed slot, no allocation — and a
// metrics reader calls Snapshot to get count and percentiles over the
// retained window. The ring keeps the last Size observations; the
// percentile sort happens only at snapshot time, on a copy, so the
// recording hot path never pays for it.
type LatencyRing struct {
	mu    sync.Mutex
	buf   []float64
	next  int
	fill  int
	count int64
}

// NewLatencyRing builds a ring retaining the last size observations
// (minimum 16).
func NewLatencyRing(size int) *LatencyRing {
	if size < 16 {
		size = 16
	}
	return &LatencyRing{buf: make([]float64, size)}
}

// Record stores one completed-query latency in milliseconds.
func (r *LatencyRing) Record(ms float64) {
	r.mu.Lock()
	r.buf[r.next] = ms
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.fill < len(r.buf) {
		r.fill++
	}
	r.count++
	r.mu.Unlock()
}

// Snapshot returns the lifetime count of recorded observations and the
// p50/p99 latency over the retained window (zeroes when nothing has
// been recorded). Percentiles use linear rank interpolation over the
// sorted window, matching the burst benchmark's definition.
func (r *LatencyRing) Snapshot() (count int64, p50, p99 float64) {
	r.mu.Lock()
	window := append([]float64(nil), r.buf[:r.fill]...)
	count = r.count
	r.mu.Unlock()
	slices.Sort(window)
	return count, Percentile(window, 0.50), Percentile(window, 0.99)
}

// Percentile returns the q-quantile (q in [0,1]) of an ascending-sorted
// sample by linear rank interpolation (the R-7 / NumPy "linear" method):
// rank q×(n-1) interpolated between its two closest order statistics,
// so distinct percentiles of a small sample collapse onto one order
// statistic only when the sample cannot tell them apart. An empty
// sample yields 0. It is the one percentile definition outside bench/.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	lo := int(math.Floor(rank))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
}
