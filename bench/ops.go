package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// opKind names one operation type of the generated load.
type opKind uint8

const (
	opBeam    opKind = iota // beam query along Dim, other coordinates from Lo
	opHot                   // range query over one aligned slot of the hot region
	opUniform               // range query over a box placed anywhere
	opInsert                // insert one point into cell Lo
	opDelete                // delete one point from cell Lo
	opFetch                 // fetch cell Lo with its overflow chain
	numOpKinds
)

var opKindNames = [numOpKinds]string{"beam", "hot", "uniform", "insert", "delete", "fetch"}

func (k opKind) String() string { return opKindNames[k] }

// isRange reports whether the op is a range query (hot or uniform box).
func (k opKind) isRange() bool { return k == opHot || k == opUniform }

// op is one generated operation. Beams use Dim and Lo (the fixed
// coordinates); boxes use [Lo, Hi); cell operations use Lo.
type op struct {
	Kind   opKind
	Dim    int
	Lo, Hi []int
}

func (o op) String() string {
	switch {
	case o.Kind == opBeam:
		return fmt.Sprintf("beam d%d %v", o.Dim, o.Lo)
	case o.Kind.isRange():
		return fmt.Sprintf("%s %v:%v", o.Kind, o.Lo, o.Hi)
	default:
		return fmt.Sprintf("%s %v", o.Kind, o.Lo)
	}
}

// volume is the cell count a range or beam must return.
func (o op) volume(dims []int) int64 {
	if o.Kind == opBeam {
		return int64(dims[o.Dim])
	}
	n := int64(1)
	for i := range o.Lo {
		n *= int64(o.Hi[i] - o.Lo[i])
	}
	return n
}

// mix is the share of each op kind in a client's list, in percent.
type mix [numOpKinds]int

var (
	// readMix is the issue's default: 40 % beams, 30 % hot boxes, 30 %
	// uniform boxes.
	readMix = mix{opBeam: 40, opHot: 30, opUniform: 30}
	// layoutMix drops the hot boxes: with the cache off they are just
	// small boxes, and fig6_layouts wants the paper's two query shapes.
	layoutMix = mix{opBeam: 40, opUniform: 60}
	// writeMix is 30 % writes, 10 % cell fetches, and the read mix over
	// the remaining 60 %.
	writeMix = mix{opBeam: 24, opHot: 18, opUniform: 18, opInsert: 15, opDelete: 15, opFetch: 10}
)

// deleteLag is how many inserts a delete trails the insert whose point
// it removes: 32 inserts = 64 writes, since writes alternate.
const deleteLag = 32

// shapeSeed seeds the box-shape stream. It is a constant of the
// benchmark, not the run: every seed issues the same multiset of box
// shapes, so the work content of a round does not depend on the seed
// and simulated metrics of two seeds differ only through where the
// boxes land and in which order they arrive.
const shapeSeed = 0x6d6d6170

// grid describes the dataset geometry the generator draws from.
type grid struct {
	dims []int
	// writeCells are the hot cells this client inserts into, deletes
	// from and fetches; empty on read-only workloads.
	writeCells [][]int
}

// hotSide is the side of one hot slot, and hotSlots the number of
// aligned slots per dimension inside the first eighth of the grid.
func (g grid) hotSide(d int) int  { return max(1, g.dims[d]/16) }
func (g grid) hotSlots(d int) int { return max(1, (g.dims[d]/8)/g.hotSide(d)) }

// maxUniformSide bounds the side of a uniform box on dimension d.
func (g grid) maxUniformSide(d int) int { return max(1, g.dims[d]/8) }

// genOps builds one client's op list. The counts per kind follow m
// exactly (largest-remainder rounding), beams cycle through the
// dimensions, box shapes come from the constant shape stream, and the
// seed chooses positions and the order of the list.
func genOps(seed int64, client, n int, m mix, g grid) []op {
	rng := rand.New(rand.NewSource(seed + 7919*int64(client)))
	shapes := rand.New(rand.NewSource(shapeSeed + int64(client)))
	nd := len(g.dims)

	counts := apportion(n, m)
	ops := make([]op, 0, n)
	for i := 0; i < counts[opBeam]; i++ {
		fixed := make([]int, nd)
		for d := range fixed {
			fixed[d] = rng.Intn(g.dims[d])
		}
		ops = append(ops, op{Kind: opBeam, Dim: i % nd, Lo: fixed})
	}
	for i := 0; i < counts[opHot]; i++ {
		lo, hi := make([]int, nd), make([]int, nd)
		for d := 0; d < nd; d++ {
			lo[d] = rng.Intn(g.hotSlots(d)) * g.hotSide(d)
			hi[d] = lo[d] + g.hotSide(d)
		}
		ops = append(ops, op{Kind: opHot, Lo: lo, Hi: hi})
	}
	for i := 0; i < counts[opUniform]; i++ {
		lo, hi := make([]int, nd), make([]int, nd)
		for d := 0; d < nd; d++ {
			side := 1 + shapes.Intn(g.maxUniformSide(d))
			lo[d] = rng.Intn(g.dims[d] - side + 1)
			hi[d] = lo[d] + side
		}
		ops = append(ops, op{Kind: opUniform, Lo: lo, Hi: hi})
	}
	for i := 0; i < counts[opFetch]; i++ {
		ops = append(ops, op{Kind: opFetch, Lo: g.writeCells[rng.Intn(len(g.writeCells))]})
	}
	writes := counts[opInsert] + counts[opDelete]
	for i := 0; i < writes; i++ {
		ops = append(ops, op{Kind: opInsert}) // kind and cell assigned after the shuffle
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	// Writes alternate insert, delete in list order. Delete j removes
	// the point of insert j-deleteLag, cyclically, so replaying the
	// list leaves every chain as it found it. The first deleteLag
	// deletes of a pass precede their insert and remove a point of the
	// set-up load instead, which the insert then puts back.
	w := 0
	for i := range ops {
		if ops[i].Kind != opInsert {
			continue
		}
		j := w / 2
		if w%2 == 0 {
			ops[i].Lo = g.insertCell(j)
		} else {
			ops[i].Kind = opDelete
			ops[i].Lo = g.insertCell((j - deleteLag + counts[opInsert]*deleteLag) % counts[opInsert])
		}
		w++
	}
	return ops
}

// insertCell is the cell insert j of a pass goes to.
func (g grid) insertCell(j int) []int { return g.writeCells[j%len(g.writeCells)] }

// apportion splits n ops over the kinds by largest remainder, so the
// counts are exact and add up to n.
func apportion(n int, m mix) [numOpKinds]int {
	var counts, rem [numOpKinds]int
	total, given := 0, 0
	for _, share := range m {
		total += share
	}
	for k, share := range m {
		counts[k] = n * share / total
		rem[k] = n * share % total
		given += counts[k]
	}
	for ; given < n; given++ {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	// Inserts and deletes alternate and cancel out over a pass, so they
	// come in pairs; an odd write becomes a fetch.
	if w := counts[opInsert] + counts[opDelete]; w > 0 {
		counts[opFetch] += w % 2
		counts[opInsert], counts[opDelete] = w/2, w/2
	}
	return counts
}

// rangeCount is how many range queries a list of n ops under m holds.
func rangeCount(n int, m mix) int {
	c := apportion(n, m)
	return c[opHot] + c[opUniform]
}

// formatOps renders a list one op per line — the byte-identical
// artefact the same-seed test compares.
func formatOps(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}
