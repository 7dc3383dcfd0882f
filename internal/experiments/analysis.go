package experiments

import (
	"fmt"

	"repro/internal/core"
)

// DimensionSupport tabulates §4.3's Equation 5: the maximum number of
// dimensions a disk supports as a function of its adjacency depth D,
// assuming equal-length middle dimensions. The paper: "For modern
// disks, D is typically on the order of hundreds, allowing mapping for
// more than 10 dimensions."
func DimensionSupport(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "eq5",
		Title:  "Dimensions supported vs adjacency depth (Eq. 5: Nmax = 2 + log2 D)",
		Header: []string{"D", "Nmax"},
	}
	for _, d := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", core.MaxDims(d)),
		})
	}
	for _, g := range disks {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s (D<=%d)", g.Name, g.AdjSpan()),
			fmt.Sprintf("%d", core.MaxDims(g.AdjSpan())),
		})
	}
	return t, nil
}

// SpaceEfficiency tabulates §4.4's wasted-space analysis: the fraction
// of track capacity MultiMap strands as a function of the dataset's
// Dim0 length, on each disk's outermost and innermost zones, with and
// without the packing-aware K0 choice. The paper's worst case —
// (T mod K0)/T up to 50% — is what the packing pass avoids.
func SpaceEfficiency(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "space",
		Title: "Track space stranded by MultiMap vs dataset Dim0 length (§4.4)",
	}
	t.Header = []string{"S0"}
	for _, g := range disks {
		outer := g.ZoneByIndex(0).SectorsPerTrack
		t.Header = append(t.Header,
			fmt.Sprintf("%s T=%d naive-K0", g.Name, outer),
			fmt.Sprintf("%s T=%d packed-K0", g.Name, outer),
		)
	}
	for _, s0 := range []int{64, 128, 259, 400, 591, 800, 1200} {
		row := []string{fmt.Sprintf("%d", s0)}
		for _, g := range disks {
			tlen := g.ZoneByIndex(0).SectorsPerTrack
			// Naive choice: K0 = min(S0, T), one cube per slot count.
			k0 := s0
			if k0 > tlen {
				k0 = tlen
			}
			row = append(row, wastePct(tlen, k0))
			// Packing-aware choice, as ChooseBasicCube makes it.
			spec, err := core.ChooseBasicCube([]int{s0, 1 << 20, 1 << 20},
				tlen, 128, g.TotalTracks())
			if err != nil {
				return nil, err
			}
			row = append(row, wastePct(tlen, spec.K[0]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func wastePct(trackLen, k0 int) string {
	used := (trackLen / k0) * k0
	return fmt.Sprintf("%.0f%%", 100*float64(trackLen-used)/float64(trackLen))
}
