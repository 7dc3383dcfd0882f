package query

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/mapping"
)

// cellBlock returns the one block of a cell, found without the
// mapping's box planner.
func cellBlock(t testing.TB, e *Executor, cell []int) lvm.Request {
	t.Helper()
	vlbn, err := e.m.CellVLBN(cell)
	if err != nil {
		t.Fatal(err)
	}
	return lvm.Request{VLBN: vlbn, Count: 1}
}

// refPlanBox is the oracle for planBox: the sub-box expanded one cell
// at a time, every cell's block sorted and coalesced
// (lvm.Coalesce at gap 0), then the issue policy the planner has always
// applied — FIFO for the linear mappings, and SPTF over gap-bridged
// requests (lvm.Coalesce at the bridge gap) for the semi-sequential
// MultiMap.
// It decides from the mapper's Kind on its own, not through PolicyFor.
func refPlanBox(t testing.TB, e *Executor, lo, hi []int) ([]lvm.Request, disk.SchedPolicy, int64) {
	t.Helper()
	var reqs []lvm.Request
	cell := slices.Clone(lo)
	for {
		reqs = append(reqs, cellBlock(t, e, cell))
		if !nextInBox(cell, lo, hi) {
			break
		}
	}
	reqs, _ = lvm.Coalesce(reqs, 0)
	if e.m.Kind() != mapping.MultiMap {
		return reqs, disk.SchedFIFO, 0
	}
	merged, padding := lvm.Coalesce(reqs, e.bridgeGap)
	return merged, disk.SchedSPTF, padding
}

// checkPlan drains the plan of the box [lo,hi) chunk by chunk and
// checks three things: the chunks' sub-boxes partition the box along
// its slowest dimension, in order and within the chunk bound; each
// chunk's requests, policy and padding are == the reference's for its
// sub-box; and those requests are ascending and disjoint, read each of
// the sub-box's cells, and read no block but them and the padding.
func checkPlan(t testing.TB, e *Executor, lo, hi []int) {
	t.Helper()
	p, err := e.Plan(lo, hi)
	if err != nil {
		t.Fatalf("box [%v,%v): %v", lo, hi, err)
	}
	bp := p.(*boxPlan)
	last := len(lo) - 1
	perSlice := int64(1)
	for i := 0; i < last; i++ {
		perSlice *= int64(hi[i] - lo[i])
	}
	next, chunks := lo[last], 0
	for {
		c, ok, err := p.Next()
		if err != nil {
			t.Fatalf("box [%v,%v) chunk %d: %v", lo, hi, chunks, err)
		}
		if !ok {
			break
		}
		chunks++
		clo, chi := slices.Clone(bp.clo), slices.Clone(bp.chi)
		for i := 0; i < last; i++ {
			if clo[i] != lo[i] || chi[i] != hi[i] {
				t.Fatalf("box [%v,%v): chunk [%v,%v) cuts dimension %d", lo, hi, clo, chi, i)
			}
		}
		slabs := int64(chi[last] - clo[last])
		if clo[last] != next || slabs < 1 {
			t.Fatalf("box [%v,%v): chunk [%v,%v) does not start at slice %d", lo, hi, clo, chi, next)
		}
		switch limit := e.opts.ChunkCells; {
		case limit == 0 && chunks > 1:
			t.Fatalf("box [%v,%v): the unchunked plan yielded chunk [%v,%v) too", lo, hi, clo, chi)
		case limit > 0 && slabs > 1 && slabs*perSlice > limit:
			t.Fatalf("box [%v,%v): chunk [%v,%v) exceeds the %d-cell bound", lo, hi, clo, chi, limit)
		}
		next = chi[last]

		reqs, policy, padding := refPlanBox(t, e, clo, chi)
		if !slices.Equal(c.Reqs, reqs) || c.Policy != policy || c.Padding != padding {
			t.Fatalf("chunk [%v,%v) of a %v box:\n plan %v %v +%d\n ref  %v %v +%d",
				clo, chi, e.m.Kind(), c.Reqs, c.Policy, c.Padding, reqs, policy, padding)
		}
		blocks := int64(0)
		for i, r := range c.Reqs {
			if i > 0 && c.Reqs[i-1].VLBN+int64(c.Reqs[i-1].Count) >= r.VLBN {
				t.Fatalf("chunk [%v,%v): requests %v and %v overlap, touch or descend", clo, chi, c.Reqs[i-1], r)
			}
			blocks += int64(r.Count)
		}
		cells := int64(0)
		cell := slices.Clone(clo)
		for {
			cells++
			x := cellBlock(t, e, cell)
			i, _ := slices.BinarySearchFunc(c.Reqs, x.VLBN, func(r lvm.Request, v int64) int {
				if r.VLBN+int64(r.Count) <= v {
					return -1
				}
				if r.VLBN > v {
					return 1
				}
				return 0
			})
			if i == len(c.Reqs) || x.VLBN < c.Reqs[i].VLBN {
				t.Fatalf("chunk [%v,%v): cell %v's block %d is in no request", clo, chi, cell, x.VLBN)
			}
			if !nextInBox(cell, clo, chi) {
				break
			}
		}
		// Disjoint requests holding every cell, and no block but them
		// and the declared padding: each cell is read exactly once.
		if blocks != cells+c.Padding {
			t.Fatalf("chunk [%v,%v): requests read %d blocks, the cells hold %d plus %d padding",
				clo, chi, blocks, cells, c.Padding)
		}
	}
	if next != hi[last] {
		t.Fatalf("box [%v,%v): chunks stop at slice %d", lo, hi, next)
	}
}

var fiveKinds = []mapping.Kind{mapping.Naive, mapping.ZOrder, mapping.Hilbert, mapping.Gray, mapping.MultiMap}

// TestPlanMatchesRef runs checkPlan over every layout, random boxes and
// beams, unchunked and under several chunk bounds.
func TestPlanMatchesRef(t *testing.T) {
	v, err := lvm.New(16, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{23, 9, 7}
	rng := rand.New(rand.NewSource(31))
	for _, kind := range fiveKinds {
		m, err := mapping.New(kind, v, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, chunk := range []int64{0, 1, 50, 300} {
			e := NewExecutorOptions(v, m, ExecOptions{ChunkCells: chunk})
			lo, hi := make([]int, 3), slices.Clone(dims)
			checkPlan(t, e, lo, hi)
			for trial := 0; trial < 20; trial++ {
				for i, d := range dims {
					lo[i] = rng.Intn(d)
					hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
				}
				if trial%4 == 0 { // a beam
					k := rng.Intn(3)
					for i := range dims {
						hi[i] = lo[i] + 1
					}
					lo[k], hi[k] = 0, dims[k]
				}
				checkPlan(t, e, lo, hi)
			}
		}
	}
}

// FuzzBox: any grid, layout, box and chunk bound the fuzzer
// can spell plans, chunk by chunk, to the reference's requests, policy
// and padding; the chunks partition the box; and every chunk reads each
// of its cells exactly once (checkPlan).
func FuzzBox(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{11, 5, 4}, []byte{2, 9, 0, 5, 1, 3})
	f.Add(uint8(1), uint16(40), []byte{19, 19, 19}, []byte{3, 17, 18, 19, 0, 1})
	f.Add(uint8(2), uint16(7), []byte{9, 33}, []byte{0, 255, 7, 8})
	f.Add(uint8(3), uint16(0), []byte{5, 3, 7, 4}, []byte{1, 2, 0, 3, 6, 7, 0, 4})
	f.Add(uint8(4), uint16(64), []byte{30, 12, 6}, []byte{4, 25, 0, 12, 2, 3})
	f.Add(uint8(4), uint16(1), []byte{1, 1}, []byte{})
	v, err := lvm.New(16, disk.MediumTestDisk())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kindByte uint8, chunk uint16, shape, box []byte) {
		if len(shape) == 0 || len(shape) > 5 {
			return
		}
		dims := make([]int, len(shape))
		cells := 1
		for i, s := range shape {
			dims[i] = 1 + int(s)%40
			cells *= dims[i]
		}
		if cells > 1<<15 {
			return
		}
		kind := fiveKinds[int(kindByte)%len(fiveKinds)]
		m, err := mapping.New(kind, v, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			return // a 1-D MultiMap, or a grid the disk cannot hold
		}
		// Two bytes a dimension place the box; missing bytes read as 0.
		at := func(i int) int {
			if i < len(box) {
				return int(box[i])
			}
			return 0
		}
		lo, hi := make([]int, len(dims)), make([]int, len(dims))
		for i, d := range dims {
			lo[i] = at(2*i) % d
			hi[i] = lo[i] + 1 + at(2*i+1)%(d-lo[i])
		}
		checkPlan(t, NewExecutorOptions(v, m, ExecOptions{ChunkCells: int64(chunk)}), lo, hi)
	})
}
