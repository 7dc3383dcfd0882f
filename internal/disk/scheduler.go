package disk

import "slices"

// SchedPolicy selects how a batch of outstanding requests is ordered by
// the drive's internal scheduler.
type SchedPolicy int

const (
	// SchedFIFO services requests in arrival order. The paper's storage
	// manager pre-sorts large batches in ascending LBN order and relies
	// on in-order service.
	SchedFIFO SchedPolicy = iota
	// SchedSPTF services the request with the shortest positioning time
	// (seek + rotational wait) first. This is the "disk's internal
	// scheduler" that fetches MultiMap's unsorted semi-sequential
	// batches along the most efficient path (§5.2).
	SchedSPTF
)

func (p SchedPolicy) String() string {
	switch p {
	case SchedFIFO:
		return "fifo"
	case SchedSPTF:
		return "sptf"
	default:
		return "unknown"
	}
}

// maxSPTFBatch bounds one scheduling window. Real drives hold a bounded
// number of outstanding commands; larger batches are served in windows
// of this size, preserving the issue order across windows — which the
// storage manager arranges to be ascending by LBN (the planners emit
// through lvm.Coalesce), so each window covers a compact band of
// tracks. newSPTF relies on that order for speed only: it builds an
// ascending window's index without a sort, and sorts any other.
const maxSPTFBatch = 4096

// ServeBatch services every request in reqs according to the policy and
// appends the per-request completions, in service order, to dst, which
// it returns; dst is the caller's, so two owners serving one drive in
// turn never share a buffer. The drive clock and head position advance
// across the whole batch. On an invalid request nothing is served and
// dst comes back unchanged with the error.
func (d *Disk) ServeBatch(dst []Completion, reqs []Request, policy SchedPolicy) ([]Completion, error) {
	for _, r := range reqs {
		if err := r.validate(d.g); err != nil {
			return dst, err
		}
	}
	dst = slices.Grow(dst, len(reqs))
	if policy == SchedSPTF {
		for start := 0; start < len(reqs); start += maxSPTFBatch {
			dst = d.serveSPTF(dst, reqs[start:min(start+maxSPTFBatch, len(reqs))])
		}
		return dst, nil
	}
	for _, r := range reqs {
		cost := d.accessValid(r)
		dst = append(dst, Completion{Req: r, Cost: cost, FinishMs: d.nowMs})
	}
	return dst, nil
}
