package radix

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

type item struct {
	key uint64
	pos int
}

// checkSort runs Sort on keys and compares it with a stable
// comparison sort of the same keys.
func checkSort(t *testing.T, keys []uint64) {
	t.Helper()
	n := len(keys)
	want := make([]item, n)
	for i, k := range keys {
		want[i] = item{k, i}
	}
	slices.SortStableFunc(want, func(a, b item) int { return cmp.Compare(a.key, b.key) })
	gotK := slices.Clone(keys)
	gotV := make([]int, n)
	for i := range gotV {
		gotV[i] = i
	}
	Sort(gotK, gotV, make([]uint64, n), make([]int, n))
	for i := range want {
		if gotK[i] != want[i].key || gotV[i] != want[i].pos {
			t.Fatalf("n=%d: position %d holds (%#x, %d), want (%#x, %d)", n, i, gotK[i], gotV[i], want[i].key, want[i].pos)
		}
	}
}

func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 255, 256, 257, 1000} {
		// Full-width keys, keys sharing all but a few bytes, heavy
		// duplicates, and already-sorted / reversed runs.
		full := make([]uint64, n)
		narrow := make([]uint64, n)
		dups := make([]uint64, n)
		for i := range full {
			full[i] = rng.Uint64()
			narrow[i] = 0xdead_0000_0000_beef | uint64(rng.IntN(1<<16))<<24
			dups[i] = uint64(rng.IntN(4)) << 56
		}
		sorted := slices.Clone(full)
		slices.Sort(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, keys := range [][]uint64{full, narrow, dups, sorted, reversed} {
			checkSort(t, keys)
		}
	}
}

func TestSortOddPassCountLandsInPlace(t *testing.T) {
	// One varying byte: a single pass leaves the result in the
	// scratch buffers, which Sort must copy back.
	keys := []uint64{3 << 8, 1 << 8, 2 << 8, 1 << 8}
	vals := []string{"a", "b", "c", "d"}
	Sort(keys, vals, make([]uint64, 4), make([]string, 4))
	if !slices.Equal(keys, []uint64{1 << 8, 1 << 8, 2 << 8, 3 << 8}) || !slices.Equal(vals, []string{"b", "d", "c", "a"}) {
		t.Fatalf("keys %v vals %v", keys, vals)
	}
}

func TestFloat64KeyOrder(t *testing.T) {
	vs := []float64{math.Inf(-1), -1e300, -2.5, -1, -math.SmallestNonzeroFloat64, 0,
		math.SmallestNonzeroFloat64, 0.5, 1, 2, 3, 1e300, math.Inf(1)}
	for i := 1; i < len(vs); i++ {
		if Float64Key(vs[i-1]) >= Float64Key(vs[i]) {
			t.Errorf("Float64Key(%g) >= Float64Key(%g)", vs[i-1], vs[i])
		}
	}
	if Float64Key(math.Copysign(0, -1)) >= Float64Key(0) {
		t.Error("−0 must key just below +0")
	}
}

func TestSortAllocatesNothing(t *testing.T) {
	keys := make([]uint64, 500)
	vals := make([]int32, 500)
	kbuf, vbuf := make([]uint64, 500), make([]int32, 500)
	rng := rand.New(rand.NewPCG(3, 4))
	allocs := testing.AllocsPerRun(20, func() {
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		Sort(keys, vals, kbuf, vbuf)
	})
	if allocs != 0 {
		t.Fatalf("Sort allocated %v times per run", allocs)
	}
}
