package engine

import "repro/internal/lvm"

// BridgedCoalesce merges ascending-sorted requests whose gaps are at
// most maxGap blocks, returning the merged set and the total padding
// blocks the merges read beyond the originals.
func BridgedCoalesce(reqs []lvm.Request, maxGap int) ([]lvm.Request, int64) {
	if len(reqs) <= 1 {
		return reqs, 0
	}
	var padding int64
	out := reqs[:1]
	for _, r := range reqs[1:] {
		last := &out[len(out)-1]
		gap := r.VLBN - (last.VLBN + int64(last.Count))
		if gap >= 0 && gap <= int64(maxGap) {
			padding += gap
			last.Count += int(gap) + r.Count
		} else {
			out = append(out, r)
		}
	}
	return out, padding
}

// CoalesceSortedLBNs merges an ascending single-block LBN list into
// contiguous requests.
func CoalesceSortedLBNs(lbns []int64) []lvm.Request {
	if len(lbns) == 0 {
		return nil
	}
	out := []lvm.Request{{VLBN: lbns[0], Count: 1}}
	for _, l := range lbns[1:] {
		last := &out[len(out)-1]
		if l == last.VLBN+int64(last.Count) {
			last.Count++
		} else {
			out = append(out, lvm.Request{VLBN: l, Count: 1})
		}
	}
	return out
}
