package mapping

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lvm"
)

// refNaive is the box planner naiveMapper.BoxRequests replaced, kept as
// the oracle: one dim0Run per Dim0 row of the box (the other dimensions
// stepped with Dim1 fastest), then every run sorted and coalesced
// (lvm.SortCoalesce).
type refNaive struct{ n *naiveMapper }

// dim0Run: a run along the major order is one contiguous request.
func (n *naiveMapper) dim0Run(cell []int, length int) ([]lvm.Request, error) {
	if length <= 0 {
		return nil, fmt.Errorf("mapping: run length must be positive, got %d", length)
	}
	if cell[0]+length > n.dims[0] {
		return nil, fmt.Errorf("mapping: run [%d,+%d) exceeds Dim0 length %d", cell[0], length, n.dims[0])
	}
	vlbn, err := n.CellVLBN(cell)
	if err != nil {
		return nil, err
	}
	return []lvm.Request{{VLBN: vlbn, Count: length}}, nil
}

func (r refNaive) boxRequests(t testing.TB, lo, hi []int) []lvm.Request {
	t.Helper()
	cell := slices.Clone(lo)
	var out []lvm.Request
	for {
		reqs, err := r.n.dim0Run(cell, hi[0]-lo[0])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reqs...)
		if !nextInBox(cell[1:], lo[1:], hi[1:]) {
			return lvm.SortCoalesce(out)
		}
	}
}
