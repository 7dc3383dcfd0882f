// Updates: the paper's online updates (§4.6) on a MultiMap store. A
// cell holds a block of points; inserts past that spill into overflow
// pages chained from the cell's home block, so a fetch of the cell
// reads the whole chain and costs more the longer it grows. Deleting
// until a chain's occupancy drops under the reclaim threshold compacts
// it again (a reorganization).
package main

import (
	"context"
	"fmt"
	"log"

	multimap "repro"
)

const pointsPerBlock = 8

func main() {
	ctx := context.Background()
	vol, err := multimap.OpenVolume(multimap.AtlasTenKIII)
	if err != nil {
		log.Fatal(err)
	}
	defer vol.Close()
	store, err := multimap.Open(vol, multimap.MultiMap, []int{64, 64, 64},
		multimap.Updatable(multimap.UpdateOptions{PointsPerBlock: pointsPerBlock}))
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	sess := store.Begin()
	defer sess.Close(ctx)

	// Cell i gets i blocks' worth of points: its chain is the home block
	// plus i-1 overflow pages.
	fmt.Printf("%-12s %8s %10s %10s\n", "cell", "points", "requests", "fetch ms")
	var longest []int
	for blocks := 1; blocks <= 6; blocks++ {
		cell := []int{10 * blocks, 20, 30}
		for i := 0; i < blocks*pointsPerBlock; i++ {
			if _, err := sess.Insert(ctx, cell); err != nil {
				log.Fatal(err)
			}
		}
		fetch(ctx, store, cell, blocks*pointsPerBlock)
		longest = cell
	}

	// Delete from the longest chain until it is compacted.
	points := 6 * pointsPerBlock
	for store.Reorganizations() == 0 {
		st, err := sess.Delete(ctx, longest)
		if err != nil {
			log.Fatal(err)
		}
		points--
		if store.Reorganizations() > 0 {
			fmt.Printf("\ndelete down to %d points: the chain is reorganized, %d blocks rewritten\n",
				points, st.Writes)
		}
	}
	fetch(ctx, store, longest, points)
}

// fetch reads a cell's chain on a fresh session and prints its cost.
func fetch(ctx context.Context, store *multimap.Store, cell []int, points int) {
	s := store.Begin()
	defer s.Close(ctx)
	st, err := s.FetchCell(ctx, cell)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %8d %10d %10.3f\n", fmt.Sprint(cell), points, st.Requests, st.TotalMs)
}
