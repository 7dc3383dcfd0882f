package engine

import (
	"fmt"
	"testing"
)

var benchCacheSink int

// BenchmarkExtentCache times the extent cache at steady state: a cache
// of capacity n holding n single-block extents (even blocks, so none
// merge), where every insert of an uncached block evicts one. It runs
// at three populations, plain (shares nil) and partitioned into two
// classes of which "pinned" sits under its reserve holding the oldest
// quarter of the extents — the extents an eviction must never pick, and
// which a walk from the global LRU back would have to pass every time.
//
//	insert   insertFor of a random even block out of 16n (15 in 16 are
//	         not cached: insert + evict; the rest refresh a cached one)
//	covered  a probe of a random block out of 4n (a quarter hit and
//	         move to the front, the rest miss)
//
// The per-operation time should stay flat as n grows, apart from what
// the memory hierarchy charges for a larger working set.
func BenchmarkExtentCache(b *testing.B) {
	for _, n := range []int64{1e3, 1e5, 1e6} {
		for _, twoClass := range []bool{false, true} {
			config := fmt.Sprintf("plain/n=%d", n)
			if twoClass {
				config = fmt.Sprintf("two-class/n=%d", n)
			}
			b.Run("insert/"+config, func(b *testing.B) {
				c, class := fullBenchCache(n, twoClass)
				rng := uint64(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					at := 2 * int64(xorshift(&rng)%uint64(16*n))
					c.insertFor(at, at+1, class)
				}
			})
			b.Run("covered/"+config, func(b *testing.B) {
				c, _ := fullBenchCache(n, twoClass)
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
}

// fullBenchCache fills a cache of capacity n with the single-block
// extents 0, 2, 4, … in ascending order and returns it with the class
// the steady-state inserts should use.
func fullBenchCache(n int64, twoClass bool) (*extentCache, string) {
	var shares map[string]int64
	class := ""
	if twoClass {
		shares = map[string]int64{"pinned": n / 2, "bulk": n / 2}
		class = "bulk"
	}
	c := newExtentCache(n, shares)
	for i := int64(0); i < n; i++ {
		if twoClass && i < n/4 {
			c.insertFor(2*i, 2*i+1, "pinned")
		} else {
			c.insertFor(2*i, 2*i+1, class)
		}
	}
	return c, class
}

// xorshift is the benchmark's position stream: a few cycles per draw,
// so that the generator does not show in a 40 ns operation.
func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}
