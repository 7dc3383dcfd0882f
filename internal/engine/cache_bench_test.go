package engine

import (
	"fmt"
	"testing"
)

var benchCacheSink int

// BenchmarkExtentCache times the extent cache at steady state: a cache
// of capacity n holding n single-block extents (even blocks, so none
// merge), where every insert of an uncached block evicts one. It runs
// at three populations.
//
//	insert   insert of a random even block out of 16n (15 in 16 are
//	         not cached: insert + evict; the rest refresh a cached one)
//	covered  a probe of a random block out of 4n (a quarter hit and
//	         move to the front, the rest miss)
//
// The per-operation time should stay flat as n grows, apart from what
// the memory hierarchy charges for a larger working set.
func BenchmarkExtentCache(b *testing.B) {
	for _, n := range []int64{1e3, 1e5, 1e6} {
		config := fmt.Sprintf("n=%d", n)
		b.Run("insert/"+config, func(b *testing.B) {
			c := fullBenchCache(n)
			rng := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := 2 * int64(xorshift(&rng)%uint64(16*n))
				c.insert(at, at+1)
			}
		})
		b.Run("covered/"+config, func(b *testing.B) {
			c := fullBenchCache(n)
			rng := uint64(1)
			hits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := int64(xorshift(&rng) % uint64(4*n))
				if c.covered(at, at+1) {
					hits++
				}
			}
			benchCacheSink += hits
		})
	}
}

// fullBenchCache fills a cache of capacity n with the single-block
// extents 0, 2, 4, … in ascending order.
func fullBenchCache(n int64) *extentCache {
	c := newExtentCache(n)
	for i := int64(0); i < n; i++ {
		c.insert(2*i, 2*i+1)
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
