// Tenants: the life of a dataset in a thin-provisioned drive pool —
// create, auto-grow past the overflow capacity (§4.6 chains keep
// growing without a re-open), grow by hand, snapshot, clone, a
// copy-on-write fault on the clone, and the clean-up — and the check
// that destroying every tenant gives the pool back the space it
// started with. It exits 1 if the pool does not return to its start
// state.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	multimap "repro"
)

func main() {
	ctx := context.Background()
	p, err := multimap.OpenPool(
		multimap.WithPoolDrives(multimap.AtlasTenKIII, multimap.AtlasTenKIII),
		multimap.WithAutoGrow(4096))
	if err != nil {
		log.Fatal(err)
	}
	start := p.Usage()

	// An updatable MultiMap tenant: 4 points per block, and an overflow
	// reserve of 1/8 of the dataset's blocks.
	parent, err := p.Create(ctx, "parent", multimap.MultiMap, []int{12, 6, 4},
		multimap.Updatable(multimap.UpdateOptions{PointsPerBlock: 4}))
	if err != nil {
		log.Fatal(err)
	}
	cell := []int{1, 2, 3}
	before := parent.Blocks()
	// 600 points at 3 a block (the 0.75 fill factor) need 200 chain
	// blocks, more than the reserve's 37: the load exhausts it, the
	// pool grows the tenant online, and the load resumes.
	sess := parent.Store().Begin()
	st, err := sess.LoadCell(ctx, cell, 600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load 600 points into %v: %d blocks written, %.2f ms\n", cell, st.Writes, st.TotalMs)
	fmt.Printf("tenant blocks: %d before, %d after auto-grow\n", before, parent.Blocks())
	for i, u := range p.Usage() {
		fmt.Printf("  drive %d: %d of %d blocks free, %d auto-grown\n", i, u.FreeBlocks, u.TotalBlocks, u.AutoGrownBlocks)
	}
	if err := sess.Close(ctx); err != nil {
		log.Fatal(err)
	}
	// Capacity can also be added by hand, online; it is not auto-grown.
	if err := p.Grow(ctx, "parent", 2048); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tenant blocks: %d after Grow(2048)\n", parent.Blocks())

	// Snapshot the tenant and clone the snapshot: the clone shares every
	// block with the parent until it writes.
	snap, err := p.Snapshot(ctx, "parent")
	if err != nil {
		log.Fatal(err)
	}
	clone, err := p.Clone(ctx, snap, "clone")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clone blocks: %d (shared with the snapshot)\n", clone.Blocks())
	csess := clone.Store().Begin()
	st, err = csess.Insert(ctx, cell)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clone insert into %v: copy-on-write fault of %d blocks; clone blocks now %d\n",
		cell, st.CowFaultBlocks, clone.Blocks())
	if err := csess.Close(ctx); err != nil {
		log.Fatal(err)
	}
	if st.CowFaultBlocks == 0 {
		log.Fatal("the clone's first write faulted no blocks")
	}

	// A cell neither side wrote reads the same frozen blocks; the two
	// drives' heads are shared, so the costs differ only by where the
	// heads were.
	untouched := []int{10, 4, 1}
	for _, t := range []*multimap.Tenant{parent, clone} {
		s := t.Store().Begin()
		st, err := s.FetchCell(ctx, untouched)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Close(ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fetch %v on a fresh session: %.3f ms\n", untouched, st.TotalMs)
	}

	snap.Free()
	for _, name := range []string{"clone", "parent"} {
		if err := p.Destroy(ctx, name); err != nil {
			log.Fatal(err)
		}
	}
	end := p.Usage()
	fmt.Printf("after free and destroy: %+v\n", end)
	if !reflect.DeepEqual(start, end) {
		log.Fatalf("the pool did not return to its start state: %+v, started at %+v", end, start)
	}
	fmt.Println("the pool is back at its start state")
}
