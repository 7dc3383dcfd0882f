package query

import (
	"repro/internal/disk"
	"repro/internal/lvm"
)

// PolicyFor returns the issue policy a mapping kind uses: MultiMap
// leaves ordering to the disk's internal scheduler, linear mappings
// pre-sort and go FIFO.
func PolicyFor(semiSequential bool) disk.SchedPolicy {
	if semiSequential {
		return disk.SchedSPTF
	}
	return disk.SchedFIFO
}

// PlanForTrace exposes an executor's materialized request plan for a
// box so tools (mmtrace) can inspect it before serving it through the
// engine. It returns the requests, the issue policy, and the planned
// padding.
func PlanForTrace(e *Executor, lo, hi []int) ([]lvm.Request, disk.SchedPolicy, int64, error) {
	return e.plan(lo, hi)
}
