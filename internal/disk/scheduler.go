package disk

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
// through lvm.SortCoalesce), so each window covers a compact band of
// tracks. newSPTF relies on that order for speed only: it builds an
// ascending window's index without a sort, and sorts any other.
const maxSPTFBatch = 4096

// ServeBatch services every request in reqs according to the policy and
// returns per-request completions in service order. The drive clock and
// head position advance across the whole batch.
func (d *Disk) ServeBatch(reqs []Request, policy SchedPolicy) ([]Completion, error) {
	for _, r := range reqs {
		if err := r.validate(d.g); err != nil {
			return nil, err
		}
	}
	if policy == SchedSPTF {
		return d.serveWindowed(reqs), nil
	}
	out := make([]Completion, 0, len(reqs))
	for _, r := range reqs {
		cost := d.accessValid(r)
		out = append(out, Completion{Req: r, Cost: cost, FinishMs: d.nowMs})
	}
	return out, nil
}

// serveWindowed applies the SPTF scheduler window by window.
func (d *Disk) serveWindowed(reqs []Request) []Completion {
	if len(reqs) <= maxSPTFBatch {
		return d.serveSPTF(reqs)
	}
	out := make([]Completion, 0, len(reqs))
	for start := 0; start < len(reqs); start += maxSPTFBatch {
		out = append(out, d.serveSPTF(reqs[start:min(start+maxSPTFBatch, len(reqs))])...)
	}
	return out
}

// BatchTimeMs sums the service time of a set of completions.
func BatchTimeMs(comps []Completion) float64 {
	var t float64
	for _, c := range comps {
		t += c.Cost.TotalMs()
	}
	return t
}
