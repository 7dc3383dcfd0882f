package query

import "repro/internal/disk"

// PolicyFor returns the issue policy a mapping kind uses: MultiMap
// leaves ordering to the disk's internal scheduler, linear mappings
// pre-sort and go FIFO.
func PolicyFor(semiSequential bool) disk.SchedPolicy {
	if semiSequential {
		return disk.SchedSPTF
	}
	return disk.SchedFIFO
}
