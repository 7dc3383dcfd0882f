// Package core implements the MultiMap mapping algorithm (§4 of the
// paper): it places an N-dimensional grid of cells onto a logical
// volume so that Dim0 runs along disk tracks (sequential access) and
// every other dimension runs along chains of adjacent blocks
// (semi-sequential access).
//
// The dataset is partitioned into basic cubes — the largest subgrids
// that can be mapped without losing spatial locality (§4.2) — which are
// then used as allocation units (§4.4). The package talks to the volume
// exclusively through the two interface calls the paper's LVM exports,
// GetAdjacent and GetTrackBoundaries, plus plain LBN arithmetic within
// zones.
package core

import "fmt"

// CubeSpec describes a basic cube: the side lengths K0..K(N-1) chosen
// under the paper's Equations 1-3 for a particular zone's track length
// T and the volume's adjacency depth D.
type CubeSpec struct {
	// K holds the basic cube's side lengths.
	K []int
	// T is the track length the cube was sized for (Eq. 1: K[0] <= T).
	T int
	// D is the adjacency depth bound (Eq. 3: K[1]*...*K[N-2] <= D).
	D int

	// strides[i] is the adjacency jump width for one step along Dimi:
	// the product K[1]*...*K[i-1] (§4.2). strides[0] is unused.
	strides []int
}

// NewCubeSpec validates side lengths against Equations 1-3 and returns
// the spec. tracksInZone bounds the cube's track footprint (Eq. 2).
func NewCubeSpec(k []int, trackLen, adjDepth, tracksInZone int) (*CubeSpec, error) {
	n := len(k)
	if n < 2 {
		return nil, fmt.Errorf("core: basic cube needs at least 2 dimensions, got %d", n)
	}
	for i, ki := range k {
		if ki <= 0 {
			return nil, fmt.Errorf("core: K[%d] = %d must be positive", i, ki)
		}
	}
	if k[0] > trackLen {
		return nil, fmt.Errorf("core: Eq.1 violated: K[0] = %d exceeds track length %d", k[0], trackLen)
	}
	inner := 1
	for i := 1; i <= n-2; i++ {
		inner *= k[i]
	}
	if inner > adjDepth {
		return nil, fmt.Errorf("core: Eq.3 violated: K[1..N-2] product %d exceeds D = %d", inner, adjDepth)
	}
	if tracks := inner * k[n-1]; tracks > tracksInZone {
		return nil, fmt.Errorf("core: Eq.2 violated: cube needs %d tracks, zone has %d", tracks, tracksInZone)
	}
	s := &CubeSpec{K: append([]int(nil), k...), T: trackLen, D: adjDepth}
	s.strides = make([]int, n)
	stride := 1
	for i := 1; i < n; i++ {
		s.strides[i] = stride
		stride *= k[i]
	}
	return s, nil
}

// N returns the number of dimensions.
func (s *CubeSpec) N() int { return len(s.K) }

// Tracks returns the cube's track footprint: K[1]*...*K[N-1].
func (s *CubeSpec) Tracks() int {
	t := 1
	for i := 1; i < len(s.K); i++ {
		t *= s.K[i]
	}
	return t
}

// MaxDims returns the paper's Eq. 5 bound on the number of dimensions a
// disk with adjacency depth d supports: Nmax = 2 + log2(d).
func MaxDims(d int) int {
	n := 2
	for d >= 2 {
		d >>= 1
		n++
	}
	return n
}

// ChooseBasicCube picks cube side lengths for a dataset with side
// lengths dims, a zone with track length trackLen and tracksInZone
// tracks, and adjacency depth adjDepth. Following §4.4, the cube is
// made as large as possible: K0 = min(S0, T); the middle dimensions
// split the D budget in proportion to their dataset lengths; the last
// dimension takes whatever track budget remains.
func ChooseBasicCube(dims []int, trackLen, adjDepth, tracksInZone int) (*CubeSpec, error) {
	n := len(dims)
	if n < 2 {
		return nil, fmt.Errorf("core: MultiMap needs at least 2 dimensions, got %d", n)
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("core: dataset dimension %d has non-positive length %d", i, d)
		}
	}
	if trackLen < 1 || adjDepth < 1 || tracksInZone < 1 {
		return nil, fmt.Errorf("core: invalid zone parameters (T=%d, D=%d, tracks=%d)",
			trackLen, adjDepth, tracksInZone)
	}
	k := make([]int, n)
	k[0] = chooseK0(dims[0], trackLen)
	// Middle dimensions: greedily grow the dimension with the largest
	// remaining dataset-to-cube ratio while the product stays within D.
	for i := 1; i <= n-2; i++ {
		k[i] = 1
	}
	for {
		best, bestRatio := -1, 1.0
		prod := 1
		for i := 1; i <= n-2; i++ {
			prod *= k[i]
		}
		for i := 1; i <= n-2; i++ {
			if k[i] >= dims[i] {
				continue
			}
			if prod/k[i]*(k[i]+1) > adjDepth {
				continue
			}
			if ratio := float64(dims[i]) / float64(k[i]); ratio > bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			break
		}
		k[best]++
	}
	// Balance the middle dimensions too: ceil(75/18) = 5 cubes either
	// way, so K=15 wastes less edge-cube space than K=18.
	for i := 1; i <= n-2; i++ {
		k[i] = balance(dims[i], k[i])
	}
	inner := 1
	for i := 1; i <= n-2; i++ {
		inner *= k[i]
	}
	// Last dimension: bounded by the zone's track budget (Eq. 2).
	k[n-1] = dims[n-1]
	if maxLast := tracksInZone / inner; k[n-1] > maxLast {
		k[n-1] = maxLast
	}
	if k[n-1] < 1 {
		return nil, fmt.Errorf("core: zone with %d tracks cannot hold any cube slice (inner product %d)",
			tracksInZone, inner)
	}
	k[n-1] = balance(dims[n-1], k[n-1])

	// Packing pass (§4.4): when K0 < T, each track holds T/K0 cube
	// slots. If the cube grid has fewer cubes than slots, track space
	// is stranded and a full scan degrades from near-sequential to one
	// settle per track. Shrink the largest non-Dim0 side (halving the
	// cube, preserving Eqs. 2-3) until enough cubes exist to fill the
	// slots — or the cube cannot shrink further.
	slots := trackLen / k[0]
	for {
		cubes := 1
		cells := int64(k[0])
		for i := 1; i < n; i++ {
			cubes *= (dims[i] + k[i] - 1) / k[i]
			cells *= int64(k[i])
		}
		if cubes >= slots {
			break
		}
		// Locality beats packing for cubes already smaller than a
		// couple of tracks: stop rather than shred a tiny dataset.
		if cells/2 < int64(trackLen) {
			break
		}
		j := -1
		for i := 1; i < n; i++ {
			if k[i] > 1 && (j < 0 || k[i] > k[j]) {
				j = i
			}
		}
		if j < 0 {
			break
		}
		k[j] = balance(dims[j], (k[j]+1)/2)
	}
	return NewCubeSpec(k, trackLen, adjDepth, tracksInZone)
}

// balance shrinks a cube side to spread a dataset dimension evenly over
// the cube count it already requires: the same number of cubes covers
// the dimension with minimal unfilled edge-cube space (§4.4).
func balance(s, k int) int {
	if k >= s {
		return s
	}
	cubes := (s + k - 1) / k
	return (s + cubes - 1) / cubes
}

// chooseK0 picks the Dim0 side. When S0 >= T the choice is forced
// (K0 = T, perfect track packing — the paper's preferred setup). When
// S0 < T, splitting Dim0 into a few cubes lets more cubes pack per
// track (§4.4), trading a rare cube jump on Dim0 beams for much better
// track utilization on scans: score candidates by packed fraction with
// a small penalty per extra cube.
func chooseK0(s0, trackLen int) int {
	if s0 >= trackLen {
		return trackLen
	}
	bestK, bestScore := s0, -1.0
	for cubes := 1; cubes <= 8 && (s0+cubes-1)/cubes >= 1; cubes++ {
		k := balance(s0, (s0+cubes-1)/cubes)
		util := float64((trackLen/k)*k) / float64(trackLen)
		score := util - 0.02*float64(cubes-1)
		if score > bestScore {
			bestK, bestScore = k, score
		}
	}
	return bestK
}
