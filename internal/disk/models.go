package disk

import (
	"fmt"
	"sort"
)

// makeZones builds nz zones tiling cyls cylinders with track length
// stepping linearly from sptOuter (zone 0) down to sptInner, each with
// skews sized to cover the head-switch and one-cylinder-seek rotation
// (plus margin), the way real drives choose skew.
func makeZones(cyls, nz, sptOuter, sptInner int, rotationMs, headSwitchMs, settleMs float64) []Zone {
	zones := make([]Zone, nz)
	per := cyls / nz
	for i := 0; i < nz; i++ {
		start := i * per
		end := start + per - 1
		if i == nz-1 {
			end = cyls - 1
		}
		spt := sptOuter
		if nz > 1 {
			spt = sptOuter - (sptOuter-sptInner)*i/(nz-1)
		}
		// Track skew covers the head switch; cylinder skew tops it up to
		// the one-cylinder settle. 10% margin, like production firmware.
		trackSkew := int(headSwitchMs/rotationMs*float64(spt)*1.1) + 1
		cylSkew := int((settleMs-headSwitchMs)/rotationMs*float64(spt)*1.1) + 1
		zones[i] = Zone{
			StartCyl:        start,
			EndCyl:          end,
			SectorsPerTrack: spt,
			TrackSkew:       trackSkew,
			CylSkew:         cylSkew,
		}
	}
	return zones
}

// AtlasTenKIII models the Maxtor Atlas 10k III used in the paper's
// evaluation: 36.7 GB, 10,000 RPM, average seek 4.5 ms. Zone track
// lengths follow the published 686–453 sectors-per-track range.
func AtlasTenKIII() *Geometry {
	const (
		rpm        = 10000
		rotationMs = 60000.0 / rpm
		headSwitch = 0.80
		settle     = 1.15
	)
	return MustGeometry(Geometry{
		Name:         "Maxtor Atlas 10k III",
		RPM:          rpm,
		Surfaces:     4,
		Zones:        makeZones(31000, 12, 686, 453, rotationMs, headSwitch, settle),
		SettleMs:     settle,
		SettleCyls:   35,
		HeadSwitchMs: headSwitch,
		SeekAvgMs:    4.5,
		SeekMaxMs:    10.5,
		CommandMs:    0.25,
	})
}

// CheetahThirtySixES models the Seagate Cheetah 36ES used in the paper's
// evaluation: 36.7 GB, 10,028 RPM (modelled as 10,000), average seek
// 5.2 ms. The paper notes both drives have comparable settle times,
// which is why MultiMap performs almost identically on them.
func CheetahThirtySixES() *Geometry {
	const (
		rpm        = 10000
		rotationMs = 60000.0 / rpm
		headSwitch = 0.85
		settle     = 1.25
	)
	return MustGeometry(Geometry{
		Name:         "Seagate Cheetah 36ES",
		RPM:          rpm,
		Surfaces:     4,
		Zones:        makeZones(28000, 11, 738, 480, rotationMs, headSwitch, settle),
		SettleMs:     settle,
		SettleCyls:   34,
		HeadSwitchMs: headSwitch,
		SeekAvgMs:    5.2,
		SeekMaxMs:    10.8,
		CommandMs:    0.30,
	})
}

// SyntheticModern is a higher-density drive outside the paper's testbed,
// used by ablation benchmarks to check that MultiMap's advantage tracks
// the settle-time/track-density trend the paper extrapolates (§3.1).
func SyntheticModern() *Geometry {
	const (
		rpm        = 10000
		rotationMs = 60000.0 / rpm
		headSwitch = 0.60
		settle     = 0.90
	)
	return MustGeometry(Geometry{
		Name:         "Synthetic Modern 10k",
		RPM:          rpm,
		Surfaces:     4,
		Zones:        makeZones(48000, 14, 1200, 720, rotationMs, headSwitch, settle),
		SettleMs:     settle,
		SettleCyls:   50,
		HeadSwitchMs: headSwitch,
		SeekAvgMs:    4.2,
		SeekMaxMs:    9.5,
		CommandMs:    0.15,
	})
}

// SmallTestDisk is a deliberately tiny geometry (two zones, short
// tracks) for fast exhaustive tests.
func SmallTestDisk() *Geometry {
	return MustGeometry(Geometry{
		Name:     "Small Test Disk",
		RPM:      10000,
		Surfaces: 2,
		Zones: []Zone{
			{StartCyl: 0, EndCyl: 99, SectorsPerTrack: 40, TrackSkew: 6, CylSkew: 3},
			{StartCyl: 100, EndCyl: 199, SectorsPerTrack: 30, TrackSkew: 5, CylSkew: 2},
		},
		SettleMs:     1.0,
		SettleCyls:   10,
		HeadSwitchMs: 0.7,
		SeekAvgMs:    4.0,
		SeekMaxMs:    9.0,
		CommandMs:    0.20,
	})
}

// MediumTestDisk is a mid-size geometry (~1 GB) for integration tests
// that need room for real datasets but not a full drive model.
func MediumTestDisk() *Geometry {
	return MustGeometry(Geometry{
		Name:     "Medium Test Disk",
		RPM:      10000,
		Surfaces: 4,
		Zones: []Zone{
			{StartCyl: 0, EndCyl: 1199, SectorsPerTrack: 160, TrackSkew: 22, CylSkew: 9},
			{StartCyl: 1200, EndCyl: 2399, SectorsPerTrack: 120, TrackSkew: 17, CylSkew: 7},
		},
		SettleMs:     1.1,
		SettleCyls:   16,
		HeadSwitchMs: 0.75,
		SeekAvgMs:    4.2,
		SeekMaxMs:    9.2,
		CommandMs:    0.20,
	})
}

// ModelName names a registered drive model (the public
// multimap.DiskModel).
type ModelName string

// modelRegistry maps CLI-friendly names to constructors.
var modelRegistry = map[string]func() *Geometry{
	"atlas10k3":   AtlasTenKIII,
	"cheetah36es": CheetahThirtySixES,
	"modern":      SyntheticModern,
	"smalltest":   SmallTestDisk,
	"mediumtest":  MediumTestDisk,
}

// ModelNames returns the registered disk model names, sorted.
func ModelNames() []string {
	names := make([]string, 0, len(modelRegistry))
	for n := range modelRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModelByName constructs a registered disk model.
func ModelByName(name string) (*Geometry, error) {
	f, ok := modelRegistry[name]
	if !ok {
		return nil, fmt.Errorf("disk: unknown model %q (have %v)", name, ModelNames())
	}
	return f(), nil
}
