package engine

import (
	"math"
	"math/bits"
	"sync/atomic"
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

// LatencyHist is a histogram of latency observations in host
// milliseconds, a fixed array of atomic counters whose zero value is
// ready to use. Producers call Record on every completed query — one
// atomic add, no lock and no allocation — and a metrics reader calls
// Snapshot for the count and percentiles over every observation since
// the histogram was made.
//
// The buckets are log-linear over whole microseconds: one per
// microsecond below 32 µs, then 16 per power of two, so a bucket from
// 16 µs up is at most 1/16 of its lower bound wide. The last bucket
// also takes everything at or past 2^41 µs (about 25 days). A
// percentile is read as its bucket's midpoint, so it is within 1/32 of
// the observation at that rank, plus 1 µs, and a recorded 0 reads back
// as 0.5 µs.
type LatencyHist struct {
	n [histBuckets]atomic.Uint64
}

const (
	histSubBits = 4  // 16 buckets per power of two
	histTopExp  = 41 // observations ≥ 2^41 µs share the last bucket
	histBuckets = (histTopExp - histSubBits + 1) << histSubBits
)

// histBucket is the bucket of an observation of ms milliseconds.
func histBucket(ms float64) int {
	us := ms * 1e3
	if !(us < 1<<histTopExp) { // past the top bucket, or NaN
		return histBuckets - 1
	}
	v := uint64(max(us, 0))
	shift := max(bits.Len64(v)-histSubBits-1, 0)
	return shift<<histSubBits + int(v>>shift)
}

// histMidMs is the midpoint of bucket i, in milliseconds.
func histMidMs(i int) float64 {
	shift := max(i>>histSubBits-1, 0)
	lo := uint64(i-shift<<histSubBits) << shift
	return (float64(lo) + float64(uint64(1)<<shift)/2) / 1e3
}

// Record counts one observation of ms milliseconds.
func (h *LatencyHist) Record(ms float64) {
	h.n[histBucket(ms)].Add(1)
}

// Snapshot returns the number of recorded observations and their p50
// and p99, each its bucket's midpoint (zeroes when nothing has been
// recorded). The rank read for quantile q is that of Percentile's lower
// order statistic, ⌊q×(count-1)⌋. Under concurrent Records a snapshot
// reads each bucket once, so a later snapshot never counts fewer.
func (h *LatencyHist) Snapshot() (count int64, p50, p99 float64) {
	var n [histBuckets]uint64
	var total uint64
	for i := range n {
		n[i] = h.n[i].Load()
		total += n[i]
	}
	if total == 0 {
		return 0, 0, 0
	}
	quantile := func(q float64) float64 {
		rank := uint64(q*float64(total-1)) + 1 // 1-based, ≤ total
		i, seen := 0, n[0]
		for seen < rank {
			i++
			seen += n[i]
		}
		return histMidMs(i)
	}
	return int64(total), quantile(0.50), quantile(0.99)
}

// Percentile returns the q-quantile (q in [0,1]) of an ascending-sorted
// sample by linear rank interpolation (the R-7 / NumPy "linear" method):
// rank q×(n-1) interpolated between its two closest order statistics,
// so distinct percentiles of a small sample collapse onto one order
// statistic only when the sample cannot tell them apart. An empty
// sample yields 0. It is the percentile of every retained sample
// outside bench/; LatencyHist, which retains none, reads its buckets.
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
