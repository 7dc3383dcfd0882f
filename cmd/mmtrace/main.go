// Command mmtrace runs one query under a chosen mapping and prints the
// per-request service trace: where every millisecond went, request by
// request. Useful for seeing the mechanisms behind the figures — e.g.
// the flat settle-time positioning of a MultiMap Dim1 beam versus the
// rotational waits of Naive.
//
// Usage:
//
//	mmtrace -mapping multimap -dims 130,130,130 -beam 1
//	mmtrace -mapping naive -dims 130,130,130 -range 0,0,0:64,64,64 -n 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

func main() {
	var (
		model   = flag.String("model", "atlas10k3", "disk model")
		mapName = flag.String("mapping", "multimap", "mapping: naive, zorder, hilbert, gray, multimap")
		dimsArg = flag.String("dims", "130,130,130", "dataset side lengths")
		beamDim = flag.Int("beam", -1, "run a beam along this dimension (fixed coords are midpoints)")
		rangeA  = flag.String("range", "", "run a range query lo0,lo1,..:hi0,hi1,..")
		n       = flag.Int("n", 30, "trace rows to print (0 = all)")
	)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "mmtrace:", err)
		os.Exit(1)
	}

	dims, err := parseInts(*dimsArg)
	if err != nil {
		die(err)
	}
	kind, err := mapping.ParseKind(*mapName)
	if err != nil {
		die(err)
	}
	g, err := disk.ModelByName(*model)
	if err != nil {
		die(err)
	}
	v, err := lvm.New(0, g)
	if err != nil {
		die(err)
	}
	m, err := mapping.New(kind, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		die(err)
	}

	lo, hi, err := queryBox(dims, *beamDim, *rangeA)
	if err != nil {
		die(err)
	}
	p, err := query.NewExecutor(v, m).Plan(lo, hi)
	if err != nil {
		die(err)
	}
	// Serve the executor's plan chunk by chunk straight through the
	// volume, capturing every completion for the trace.
	tr := &Trace{}
	var policy disk.SchedPolicy
	for {
		c, ok, err := p.Next()
		if err != nil {
			die(err)
		}
		if !ok {
			break
		}
		policy = c.Policy
		comps, elapsed, err := v.ServeBatch(c.Reqs, policy)
		if err != nil {
			die(err)
		}
		tr.Add(comps, elapsed)
	}

	s := tr.Summarize()
	fmt.Printf("%s over %v on %s: box [%v, %v), policy %v, elapsed %.1f ms\n\n",
		kind, dims, g.Name, lo, hi, policy, s.ElapsedMs)
	fmt.Println(s.String())
	fmt.Println()
	fmt.Print(tr.Dump(*n))
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func queryBox(dims []int, beamDim int, rangeArg string) (lo, hi []int, err error) {
	switch {
	case beamDim >= 0 && rangeArg != "":
		return nil, nil, fmt.Errorf("choose either -beam or -range")
	case beamDim >= 0:
		if beamDim >= len(dims) {
			return nil, nil, fmt.Errorf("beam dim %d out of range", beamDim)
		}
		lo = make([]int, len(dims))
		hi = make([]int, len(dims))
		for i := range dims {
			if i == beamDim {
				lo[i], hi[i] = 0, dims[i]
			} else {
				lo[i], hi[i] = dims[i]/2, dims[i]/2+1
			}
		}
		return lo, hi, nil
	case rangeArg != "":
		parts := strings.SplitN(rangeArg, ":", 2)
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("range must be lo,..:hi,..")
		}
		if lo, err = parseInts(parts[0]); err != nil {
			return nil, nil, err
		}
		if hi, err = parseInts(parts[1]); err != nil {
			return nil, nil, err
		}
		return lo, hi, nil
	default:
		return nil, nil, fmt.Errorf("specify -beam or -range")
	}
}
