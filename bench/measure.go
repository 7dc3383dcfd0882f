package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// value is one reported metric: the median of its per-round samples,
// their range, and how many rounds (N) and raw samples per round
// (PerRound, for percentiles) stand behind it.
type value struct {
	Name     string
	Unit     string
	Median   float64
	Min      float64
	Max      float64
	N        int
	PerRound int
	Note     string
}

// summarize folds per-round samples into a value. An empty sample set
// reports zeros with N = 0.
func summarize(name, unit string, samples []float64) value {
	v := value{Name: name, Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return v
	}
	s := sortedCopy(samples)
	v.Median, v.Min, v.Max = median(s), s[0], s[len(s)-1]
	return v
}

// single reports one measurement taken once in the run.
func single(name, unit string, x float64) value {
	return value{Name: name, Unit: unit, Median: x, Min: x, Max: x, N: 1}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of a sorted slice (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailGuard is how many samples must lie beyond a reported percentile.
const tailGuard = 10

// percentileLadder are the percentiles a tail metric may fall back to,
// highest first; the median is always reportable.
var percentileLadder = []float64{99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of a sorted
// slice and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (x float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// supportedPercentile returns the highest percentile of the ladder not
// above want that has at least tailGuard samples beyond it in a sample
// of size n; the median needs no guard.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= tailGuard || p == 50 {
			return p
		}
	}
	return 50
}

// resources is a snapshot of the process's CPU time and allocation
// count; deltas between two snapshots bracket a round.
type resources struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

func snapshotResources() resources {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// liveHeapMiB forces a collection and returns the heap still in use.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
