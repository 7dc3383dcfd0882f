package pool

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// TestSharedDriveTenantsServeConcurrently: two pool tenants carved from
// one drive serve SPTF batches from two goroutines at GOMAXPROCS 4
// (run it with -race). Each volume serves into its own completion
// buffers and the drive builds every window in its kept slabs under its
// mutex, so every completion a tenant gets back must be one of its own
// requests, each exactly once. Were the drive to hand back a buffer of
// its own, the other tenant's next window would overwrite completions
// this one is still reading. The tenants ask for different request
// lengths, so a completion of the other's stands out, and the batches
// straddle the 256 requests past which nothing is kept.
func TestSharedDriveTenantsServeConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p, err := New(0, disk.AtlasTenKIII())
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 1 << 20
	var vols [2]*lvm.Volume
	for i := range vols {
		v, err := p.NewVolume(blocks, nil)
		if err != nil {
			t.Fatal(err)
		}
		vols[i] = v.Volume()
	}
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	var wg sync.WaitGroup
	for i, v := range vols {
		wg.Add(1)
		go func(i int, v *lvm.Volume) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for round := 0; round < rounds; round++ {
				reqs := make([]lvm.Request, 1+rng.Intn(320))
				want := map[lvm.Request]int{}
				for k := range reqs {
					// A narrow span, so windows pile up on few tracks and
					// repeat requests; tenant i asks for 4i+1 … 4i+4 blocks.
					reqs[k] = lvm.Request{VLBN: rng.Int63n(8192), Count: 4*i + 1 + rng.Intn(4)}
					want[reqs[k]]++
				}
				comps, _, err := v.ServeBatch(reqs, disk.SchedSPTF)
				if err != nil {
					t.Errorf("tenant %d round %d: %v", i, round, err)
					return
				}
				for _, c := range comps {
					if want[c.Req]--; want[c.Req] < 0 {
						t.Errorf("tenant %d round %d: completion %+v is not one of its outstanding requests", i, round, c.Req)
						return
					}
				}
				for r, n := range want {
					if n != 0 {
						t.Errorf("tenant %d round %d: request %+v completed %d times too few", i, round, r, n)
						return
					}
				}
			}
		}(i, v)
	}
	wg.Wait()
}
