package engine

import (
	"fmt"
	"testing"
)

var benchCacheSink int

// BenchmarkExtentCache times the extent cache at steady state, where
// every insert of an uncached extent evicts, at three populations n and
// on both sides of the bucket width:
//
//	dense   n single-block extents on the even blocks: 128 to a bucket,
//	        the longest walk a probe can take
//	sparse  n extents of 1–32 blocks, 300 blocks apart on average (the
//	        serving workload's steady state): one or two to a bucket
//
// and two operations:
//
//	insert   an extent at a random slot out of 16n (dense) or 4n
//	         (sparse): most are not cached (insert + evict), the rest
//	         refresh a cached one
//	covered  a probe of a random slot's first block out of 4n: a
//	         quarter hit and move to the front, the rest miss
//
// The per-operation time should stay flat as n grows, apart from what
// the memory hierarchy charges for a larger working set.
func BenchmarkExtentCache(b *testing.B) {
	for _, p := range []benchPopulation{denseBench, sparseBench} {
		for _, n := range []int64{1e3, 1e5, 1e6} {
			config := fmt.Sprintf("%s/n=%d", p.name, n)
			b.Run("insert/"+config, func(b *testing.B) {
				c := p.fill(n)
				rng := uint64(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start, end := p.slot(int64(xorshift(&rng) % uint64(p.insertSlots*n)))
					c.insert(start, end)
				}
			})
			b.Run("covered/"+config, func(b *testing.B) {
				c := p.fill(n)
				rng := uint64(1)
				hits := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start, _ := p.slot(int64(xorshift(&rng) % uint64(4*n)))
					if c.covered(start, start+1) {
						hits++
					}
				}
				benchCacheSink += hits
			})
		}
	}
}

// benchPopulation places the benchmark's extents: slot k holds the
// extent slot(k), and a full cache of n extents holds every fourth slot
// (sparse) or the first n (dense).
type benchPopulation struct {
	name        string
	insertSlots int64 // inserts draw slots out of insertSlots·n
	slot        func(k int64) (start, end int64)
	cached      func(i int64) (k int64) // the slot of the full cache's i-th extent
}

var (
	denseBench = benchPopulation{
		name:        "dense",
		insertSlots: 16,
		slot:        func(k int64) (int64, int64) { return 2 * k, 2*k + 1 },
		cached:      func(i int64) int64 { return i },
	}
	// Slots 75 blocks apart hold extents of 1–32 blocks, so no two
	// slots' extents touch and every fourth slot cached puts them 300
	// blocks apart.
	sparseBench = benchPopulation{
		name:        "sparse",
		insertSlots: 4,
		slot: func(k int64) (int64, int64) {
			h := uint64(k+1) * 0x9e3779b97f4a7c15
			return 75 * k, 75*k + 1 + int64(h>>59)
		},
		cached: func(i int64) int64 { return 4 * i },
	}
)

// fill builds a cache whose capacity is exactly the blocks of its n
// extents, inserted in ascending order.
func (p benchPopulation) fill(n int64) *extentCache {
	var capBlocks int64
	for i := int64(0); i < n; i++ {
		start, end := p.slot(p.cached(i))
		capBlocks += end - start
	}
	c := newExtentCache(capBlocks)
	for i := int64(0); i < n; i++ {
		c.insert(p.slot(p.cached(i)))
	}
	return c
}

// xorshift is the benchmark's position stream: a few cycles per draw,
// so that the generator does not show in a 40 ns operation.
func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}
