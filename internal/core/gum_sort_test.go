package core

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// refSortUnderByGap is the comparator sort that sortUnderByGap's
// radix sort replaced: largest gap first, ties by cell index.
func refSortUnderByGap(under []cellGap) {
	slices.SortFunc(under, func(a, b cellGap) int {
		if a.Gap != b.Gap {
			if a.Gap > b.Gap {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Cell, b.Cell)
	})
}

// TestSortUnderByGapMatchesComparator checks the radix sort against
// the comparator on under lists shaped like the planner's: ascending
// cells, gaps above gumDust with many exact duplicates (integer and
// half-integer deficits) mixed with noisy fractional ones. One
// scratch serves every case, so its buffers grow and shrink between
// calls as they do across plans.
func TestSortUnderByGapMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 15))
	sc := newGumScratch(0, 0, false)
	lengths := []int{0, 1, 2, 3, 17, 480, 5000}
	for trial := 0; trial < 400; trial++ {
		n := lengths[trial%len(lengths)]
		if trial >= 2*len(lengths) {
			n = rng.IntN(1200)
		}
		under := make([]cellGap, n)
		cell := rng.IntN(4)
		for i := range under {
			cell += 1 + rng.IntN(3)
			var gap float64
			switch rng.IntN(3) {
			case 0:
				gap = float64(1 + rng.IntN(4)) // heavy duplicates
			case 1:
				gap = 0.5 + float64(rng.IntN(8))/2
			default:
				gap = gumDust + rng.ExpFloat64()*50
			}
			under[i] = cellGap{Cell: cell, Gap: gap}
		}
		want := slices.Clone(under)
		refSortUnderByGap(want)
		sc.sortUnderByGap(under)
		if !slices.Equal(under, want) {
			t.Fatalf("trial %d (n=%d): radix order differs from the comparator\n got  %v\n want %v", trial, n, under, want)
		}
	}
}
