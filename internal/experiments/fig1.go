package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/disk"
)

// Fig1aSeekProfile regenerates the paper's Fig. 1(a): seek time as a
// function of cylinder distance, showing the settle-dominated plateau
// for short distances. One column per configured disk.
func Fig1aSeekProfile(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig1a",
		Title:  "Seek time vs cylinder distance (settle plateau at short distances)",
		Header: []string{"distance_cyls"},
	}
	for _, g := range disks {
		t.Header = append(t.Header, g.Name+" [ms]")
	}
	// Log-spaced distances plus the settle boundary of each disk.
	dists := []int{1, 2, 4, 8, 16, 24, 32, 40, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	for _, g := range disks {
		dists = append(dists, g.SettleCyls, g.SettleCyls+1, g.Cylinders()-1)
	}
	seen := map[int]bool{}
	var uniq []int
	for _, d := range dists {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	for i := 1; i < len(uniq); i++ {
		for j := i; j > 0 && uniq[j] < uniq[j-1]; j-- {
			uniq[j], uniq[j-1] = uniq[j-1], uniq[j]
		}
	}
	for _, d := range uniq {
		row := []string{fmt.Sprintf("%d", d)}
		for _, g := range disks {
			if d >= g.Cylinders() {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(g.SeekTimeMs(d)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig1bAdjacency validates the adjacency property of Fig. 1(b) by
// measurement: for each adjacency depth k, the positioning cost of
// fetching the k-th adjacent block right after its parent. All D rows
// should sit at (command + settle) plus at most the guard rotation —
// flat across k, unlike a rotational-latency access.
func Fig1bAdjacency(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig1b",
		Title:  "Positioning cost of the k-th adjacent block (flat = no rotational latency)",
		Header: []string{"k"},
	}
	for _, g := range disks {
		t.Header = append(t.Header, g.Name+" [ms]", g.Name+" rot-latency access [ms]")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ks := []int{1, 2, 4, 8, 16, 32, 64, 96, 128}
	for _, k := range ks {
		row := []string{fmt.Sprintf("%d", k)}
		for _, g := range disks {
			d := disk.New(g)
			var adjPos, rotPos float64
			const trials = 20
			for i := 0; i < trials; i++ {
				lbn := rng.Int63n(g.TotalBlocks() / 2)
				a, err := g.AdjacentBlock(lbn, k)
				if err != nil {
					return nil, err
				}
				if _, err := d.Access(disk.Request{LBN: lbn, Count: 1}); err != nil {
					return nil, err
				}
				cost, err := d.Access(disk.Request{LBN: a, Count: 1})
				if err != nil {
					return nil, err
				}
				adjPos += cost.CommandMs + cost.SeekMs + cost.RotateMs
				// Comparison: same track distance but a random sector —
				// pays rotational latency.
				if _, err := d.Access(disk.Request{LBN: lbn, Count: 1}); err != nil {
					return nil, err
				}
				start, next, err := g.TrackBoundaries(a)
				if err != nil {
					return nil, err
				}
				randBlock := start + rng.Int63n(next-start)
				cost, err = d.Access(disk.Request{LBN: randBlock, Count: 1})
				if err != nil {
					return nil, err
				}
				rotPos += cost.CommandMs + cost.SeekMs + cost.RotateMs
			}
			row = append(row, f3(adjPos/trials), f3(rotPos/trials))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
