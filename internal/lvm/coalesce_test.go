package lvm_test

import (
	"slices"
	"testing"

	"repro/internal/lvm"
)

// TestCoalesce: unsorted requests are sorted and contiguous ones
// merged, with no padding, at gap 0; at a wider gap, requests at most
// that many blocks apart merge too, and the blocks between them are
// counted as padding.
func TestCoalesce(t *testing.T) {
	in := []lvm.Request{{VLBN: 10, Count: 2}, {VLBN: 5, Count: 1}, {VLBN: 13, Count: 3}, {VLBN: 6, Count: 4}}
	out, padding := lvm.Coalesce(in, 0)
	if want := []lvm.Request{{VLBN: 5, Count: 7}, {VLBN: 13, Count: 3}}; !slices.Equal(out, want) || padding != 0 {
		t.Fatalf("gap 0: got %v, padding %d; want %v, 0", out, padding, want)
	}
	if got, padding := lvm.Coalesce(nil, 0); len(got) != 0 || padding != 0 {
		t.Error("empty input should stay empty")
	}
	// Gaps of 2 and 3 blocks: maxGap 2 bridges the first only.
	in = []lvm.Request{{VLBN: 0, Count: 4}, {VLBN: 6, Count: 1}, {VLBN: 10, Count: 2}}
	out, padding = lvm.Coalesce(in, 2)
	if want := []lvm.Request{{VLBN: 0, Count: 7}, {VLBN: 10, Count: 2}}; !slices.Equal(out, want) || padding != 2 {
		t.Fatalf("gap 2: got %v, padding %d; want %v, 2", out, padding, want)
	}
}

// TestCoalesceSorted: lvm.Coalesce sorts a list only when a request
// starts before its predecessor ends.
//   - Distinct ascending single-block requests, the octree's FIFO plan,
//     merge into their contiguous runs with the sort skipped.
//   - A repeated block triggers the sort and stays a request of its
//     own; the copy after it merges with the next block.
func TestCoalesceSorted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks []int64
		sorts  bool
		want   []lvm.Request
	}{
		{"distinct", []int64{1, 2, 3, 7, 8, 20, 21}, false,
			[]lvm.Request{{VLBN: 1, Count: 3}, {VLBN: 7, Count: 2}, {VLBN: 20, Count: 2}}},
		{"repeated", []int64{1, 2, 3, 7, 8, 20, 20, 21}, true,
			[]lvm.Request{{VLBN: 1, Count: 3}, {VLBN: 7, Count: 2}, {VLBN: 20, Count: 1}, {VLBN: 20, Count: 2}}},
	} {
		var in []lvm.Request
		sorts := false
		for i, l := range tc.blocks {
			in = append(in, lvm.Request{VLBN: l, Count: 1})
			sorts = sorts || i > 0 && l < tc.blocks[i-1]+1
		}
		if sorts != tc.sorts {
			t.Fatalf("%s: input triggers the sort: %v, row says %v", tc.name, sorts, tc.sorts)
		}
		if out, _ := lvm.Coalesce(in, 0); !slices.Equal(out, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, out, tc.want)
		}
	}
}
