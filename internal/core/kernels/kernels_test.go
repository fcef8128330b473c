package kernels

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The equivalence suite: every exported kernel against its ref.go
// twin, float64 and float32, across shapes that exercise the 8-lane
// bodies, their scalar tails, and empty input. Under -tags purego
// the exports ARE the refs, so these tests pin the reference against
// itself — the cross-variant guarantee then comes from running this
// same suite in the default build.

var rowCases = []int{0, 1, 7, 8, 9, 15, 16, 63, 257, 2000}

func randCols(rng *rand.Rand, n int, doms ...int) [][]int32 {
	cols := make([][]int32, len(doms))
	for i, d := range doms {
		cols[i] = make([]int32, n)
		for r := range cols[i] {
			cols[i][r] = int32(rng.IntN(d))
		}
	}
	return cols
}

func TestCellsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range rowCases {
		cols := randCols(rng, n, 16, 9, 11)
		got := make([]int, n)
		want := make([]int, n)

		Cells2(got, cols[0], cols[1], 9)
		refCells2(want, cols[0], cols[1], 9)
		if !slices.Equal(got, want) {
			t.Fatalf("Cells2 n=%d diverges from reference", n)
		}

		Cells3(got, cols[0], cols[1], cols[2], 99, 11)
		refCells3(want, cols[0], cols[1], cols[2], 99, 11)
		if !slices.Equal(got, want) {
			t.Fatalf("Cells3 n=%d diverges from reference", n)
		}

		for i, c := range cols {
			AccumStride(got, c, 3+i, i == 0)
			refAccumStride(want, c, 3+i, i == 0)
			if !slices.Equal(got, want) {
				t.Fatalf("AccumStride n=%d col=%d diverges from reference", n, i)
			}
		}
	}
}

// arena is a pair of tally arenas (kernel under test vs reference)
// over the same cell space.
type arena[F Float] struct {
	vals, refVals   []F
	stamp, refStamp []uint32
	first, refFirst []int32
	epoch           uint32
}

func newArena[F Float](cells int, epoch uint32) *arena[F] {
	return &arena[F]{
		vals:     make([]F, cells),
		refVals:  make([]F, cells),
		stamp:    make([]uint32, cells),
		refStamp: make([]uint32, cells),
		first:    make([]int32, cells),
		refFirst: make([]int32, cells),
		epoch:    epoch,
	}
}

func (a *arena[F]) check(t *testing.T, tag string, touched, refTouched []int) {
	t.Helper()
	if !slices.Equal(touched, refTouched) {
		t.Fatalf("%s: touched diverges from reference: %v vs %v", tag, touched, refTouched)
	}
	if !slices.Equal(a.stamp, a.refStamp) {
		t.Fatalf("%s: stamp arena diverges from reference", tag)
	}
	for c := range a.vals {
		if a.stamp[c] != a.epoch {
			continue
		}
		if a.vals[c] != a.refVals[c] {
			t.Fatalf("%s: vals[%d] = %v, reference %v", tag, c, a.vals[c], a.refVals[c])
		}
		if a.first[c] != a.refFirst[c] {
			t.Fatalf("%s: first[%d] = %d, reference %d", tag, c, a.first[c], a.refFirst[c])
		}
	}
}

func testTally[F Float](t *testing.T, tag string) {
	rng := rand.New(rand.NewPCG(3, 4))
	const cells = 16 * 9 * 11
	for _, n := range rowCases {
		cols := randCols(rng, n, 16, 9, 11)
		cellOf := make([]int, n)
		refCellOf := make([]int, n)

		// 2-way fused.
		a := newArena[F](cells, 7)
		got := Cells2Tally(cellOf, cols[0], cols[1], 9, a.vals, a.stamp, a.first, a.epoch, nil)
		want := refCells2Tally(refCellOf, cols[0], cols[1], 9, a.refVals, a.refStamp, a.refFirst, a.epoch, nil)
		a.check(t, tag+"/Cells2Tally", got, want)
		if !slices.Equal(cellOf, refCellOf) {
			t.Fatalf("%s: Cells2Tally cellOf diverges", tag)
		}

		// 3-way fused.
		a = newArena[F](cells, 9)
		got = Cells3Tally(cellOf, cols[0], cols[1], cols[2], 99, 11, a.vals, a.stamp, a.first, a.epoch, nil)
		want = refCells3Tally(refCellOf, cols[0], cols[1], cols[2], 99, 11, a.refVals, a.refStamp, a.refFirst, a.epoch, nil)
		a.check(t, tag+"/Cells3Tally", got, want)
		if !slices.Equal(cellOf, refCellOf) {
			t.Fatalf("%s: Cells3Tally cellOf diverges", tag)
		}

		// Plain tally over precomputed cells, then blocked passes over
		// the same rows: same touched SET in block order.
		a = newArena[F](cells, 11)
		got = Tally(cellOf, a.vals, a.stamp, a.first, a.epoch, nil)
		want = refTally(refCellOf, a.refVals, a.refStamp, a.refFirst, a.epoch, nil)
		a.check(t, tag+"/Tally", got, want)

		a = newArena[F](cells, 13)
		got, want = nil, nil
		for lo := 0; lo < cells; lo += 301 {
			hi := min(lo+301, cells)
			got = TallyRange(cellOf, a.vals, a.stamp, a.first, a.epoch, lo, hi, got)
			want = refTallyRange(cellOf, a.refVals, a.refStamp, a.refFirst, a.epoch, lo, hi, want)
		}
		a.check(t, tag+"/TallyRange", got, want)
		// Blocked and unblocked tallies agree as sets with identical
		// per-cell counts and first rows (order differs by
		// construction).
		flat := newArena[F](cells, 13)
		flatTouched := refTally(cellOf, flat.refVals, flat.refStamp, flat.refFirst, 13, nil)
		if len(flatTouched) != len(got) {
			t.Fatalf("%s: blocked touched size %d, flat %d", tag, len(got), len(flatTouched))
		}
		for _, c := range got {
			if flat.refStamp[c] != 13 || flat.refVals[c] != a.vals[c] || flat.refFirst[c] != a.first[c] {
				t.Fatalf("%s: blocked cell %d disagrees with flat tally", tag, c)
			}
		}
	}
}

func TestTallyMatchReference(t *testing.T) {
	testTally[float64](t, "f64")
	testTally[float32](t, "f32")
}

// lowestRows is the first-row oracle: the lowest row of every cell
// in cellOf, -1 for cells no row lands in.
func lowestRows(cellOf []int, cells int) []int32 {
	low := make([]int32, cells)
	for c := range low {
		low[c] = -1
	}
	for r := len(cellOf) - 1; r >= 0; r-- {
		low[cellOf[r]] = int32(r)
	}
	return low
}

// testFirstRow checks every tally kernel's first[] against the
// lowest-row oracle, not just against its reference twin: GUM takes
// its representative rows straight from first[], so a kernel that
// recorded any other row of the cell (the last, say) would change
// the plan's duplicate sources while both variants still agreed. The
// arrays start poisoned so an unwritten counted cell shows too.
func testFirstRow[F Float](t *testing.T, tag string) {
	rng := rand.New(rand.NewPCG(11, 12))
	const cells = 16 * 9 * 11
	run := func(name string, n int, cellOf []int, tally func(first []int32, ref bool)) {
		t.Helper()
		low := lowestRows(cellOf, cells)
		for _, ref := range []bool{false, true} {
			first := make([]int32, cells)
			for c := range first {
				first[c] = -7
			}
			tally(first, ref)
			for c, w := range low {
				if w >= 0 && first[c] != w {
					t.Fatalf("%s/%s n=%d ref=%v: first[%d] = %d, lowest row %d", tag, name, n, ref, c, first[c], w)
				}
			}
		}
	}
	for _, n := range rowCases {
		cols := randCols(rng, n, 16, 9, 11)
		cellOf := make([]int, n)
		refCells2(cellOf, cols[0], cols[1], 9)
		run("Cells2Tally", n, cellOf, func(first []int32, ref bool) {
			out := make([]int, n)
			vals, stamp := make([]F, cells), make([]uint32, cells)
			if ref {
				refCells2Tally(out, cols[0], cols[1], 9, vals, stamp, first, 1, nil)
			} else {
				Cells2Tally(out, cols[0], cols[1], 9, vals, stamp, first, 1, nil)
			}
		})
		refCells3(cellOf, cols[0], cols[1], cols[2], 99, 11)
		run("Cells3Tally", n, cellOf, func(first []int32, ref bool) {
			out := make([]int, n)
			vals, stamp := make([]F, cells), make([]uint32, cells)
			if ref {
				refCells3Tally(out, cols[0], cols[1], cols[2], 99, 11, vals, stamp, first, 1, nil)
			} else {
				Cells3Tally(out, cols[0], cols[1], cols[2], 99, 11, vals, stamp, first, 1, nil)
			}
		})
		run("Tally", n, cellOf, func(first []int32, ref bool) {
			vals, stamp := make([]F, cells), make([]uint32, cells)
			if ref {
				refTally(cellOf, vals, stamp, first, 1, nil)
			} else {
				Tally(cellOf, vals, stamp, first, 1, nil)
			}
		})
		// Every block of a blocked tally, at a block size that leaves a
		// ragged last block.
		run("TallyRange", n, cellOf, func(first []int32, ref bool) {
			vals, stamp := make([]F, cells), make([]uint32, cells)
			for lo := 0; lo < cells; lo += 301 {
				hi := min(lo+301, cells)
				if ref {
					refTallyRange(cellOf, vals, stamp, first, 1, lo, hi, nil)
				} else {
					TallyRange(cellOf, vals, stamp, first, 1, lo, hi, nil)
				}
			}
		})
	}
}

func TestTallyFirstRow(t *testing.T) {
	testFirstRow[float64](t, "f64")
	testFirstRow[float32](t, "f32")
}

func testGapSweep[F Float](t *testing.T, tag string) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, cells := range []int{0, 1, 8, 9, 100, 1584} {
		for trial := 0; trial < 20; trial++ {
			const epoch = 21
			vals := make([]F, cells)
			stamp := make([]uint32, cells)
			counts := make([]float64, cells)
			var touched, tcells []int
			for c := 0; c < cells; c++ {
				if rng.Float64() < 0.4 {
					stamp[c] = epoch
					vals[c] = F(rng.IntN(50))
					touched = append(touched, c)
				}
				counts[c] = rng.Float64() * 40
				if counts[c] > 0.5 {
					tcells = append(tcells, c)
				}
			}
			gotO, gotU, gotL1 := GapSweep(vals, stamp, epoch, counts, tcells, 0.5, nil, nil)
			wantO, wantU, wantL1 := refGapSweep(vals, stamp, epoch, counts, tcells, 0.5, nil, nil)
			if gotL1 != wantL1 || !slices.Equal(gotO, wantO) || !slices.Equal(gotU, wantU) {
				t.Fatalf("%s: GapSweep(cells=%d) diverges from reference", tag, cells)
			}
			// The merge route over the sorted touched set must agree
			// with the sweep byte for byte — that is planUpdate's
			// route-independence contract.
			mO, mU, mL1 := GapMerge(touched, vals, counts, tcells, 0.5, nil, nil)
			if mL1 != wantL1 || !slices.Equal(mO, wantO) || !slices.Equal(mU, wantU) {
				t.Fatalf("%s: GapMerge(cells=%d) diverges from GapSweep", tag, cells)
			}
		}
	}
}

func TestGapSweepMatchReference(t *testing.T) {
	testGapSweep[float64](t, "f64")
	testGapSweep[float32](t, "f32")
}

func testPoolScan[F Float](t *testing.T, tag string) {
	rng := rand.New(rand.NewPCG(7, 8))
	const cells = 97
	for _, n := range rowCases {
		for _, quota := range []int{1, 4, 40} {
			cellOf := make([]int, n)
			for r := range cellOf {
				cellOf[r] = rng.IntN(cells)
			}
			const epoch = 31
			vals := make([]F, cells)
			stamp := make([]uint32, cells)
			want := 0
			for c := 0; c < cells; c++ {
				// Unstamped cells carry stale values that must not read
				// as quota.
				vals[c] = F(rng.IntN(3))
				if rng.Float64() < 0.3 {
					q := rng.IntN(quota)
					stamp[c] = epoch
					vals[c] = F(q)
					want += q
				}
			}
			// The pool may arrive empty, with a live prefix the scan
			// must append after, or with capacity below want (the
			// kernel must grow it, never write past it).
			prefix := []int{-3, -2, -1}
			for _, start := range []struct {
				name string
				pool []int
			}{
				{"nil", nil},
				{"presized", make([]int, 0, want)},
				{"prefix", slices.Clone(prefix)},
				{"prefix-presized", append(make([]int, 0, len(prefix)+want), prefix...)},
				{"short-cap", make([]int, 0, want/2)},
				{"prefix-short-cap", append(make([]int, 0, len(prefix)+want/3), prefix...)},
			} {
				gotVals, refVals := slices.Clone(vals), slices.Clone(vals)
				refPool := slices.Clone(start.pool)
				gotPool := PoolScan(cellOf, gotVals, stamp, epoch, start.pool, want)
				wantPool := refPoolScan(cellOf, refVals, stamp, epoch, refPool, want)
				if !slices.Equal(gotPool, wantPool) {
					t.Fatalf("%s: PoolScan(n=%d quota<%d %s) = %v, reference %v", tag, n, quota, start.name, gotPool, wantPool)
				}
				for c := range gotVals {
					if stamp[c] == epoch && gotVals[c] != refVals[c] {
						t.Fatalf("%s: PoolScan(n=%d %s) leftover quota at cell %d: %v vs %v", tag, n, start.name, c, gotVals[c], refVals[c])
					}
				}
			}
		}
	}
}

func TestPoolScanMatchReference(t *testing.T) {
	testPoolScan[float64](t, "f64")
	testPoolScan[float32](t, "f32")
}

func TestVariantName(t *testing.T) {
	if v := Variant(); v != "optimized" && v != "purego" {
		t.Fatalf("Variant() = %q, want optimized or purego", v)
	}
}

func TestL2BytesSane(t *testing.T) {
	if b := L2Bytes(); b < 64<<10 || b > 64<<20 {
		t.Fatalf("L2Bytes() = %d, outside sane clamp", b)
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int{
		"2048K":   2048 << 10,
		"1M":      1 << 20,
		"512K":    512 << 10,
		"65536":   65536,
		"bogus":   0,
		"":        0,
		"4K":      0, // below clamp
		"999999M": 0, // above clamp
		"-2048K":  0,
		"1.5M":    0,
	}
	for in, want := range cases {
		if got := parseCacheSize(in); got != want {
			t.Fatalf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}

// TestProbeSysfsL2 exercises the probe against a synthetic sysfs
// tree: an instruction L2 to skip, then the unified L2 to pick up,
// and the fallback when nothing parses.
func TestProbeSysfsL2(t *testing.T) {
	dir := t.TempDir()
	write := func(idx int, level, typ, size string) {
		d := filepath.Join(dir, "index"+string(rune('0'+idx)))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]string{"level": level, "type": typ, "size": size} {
			if err := os.WriteFile(filepath.Join(d, name), []byte(v+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, "1", "Data", "32K")
	write(1, "2", "Instruction", "1024K")
	write(2, "2", "Unified", "2048K")
	if got := probeSysfsL2(dir); got != 2048<<10 {
		t.Fatalf("probeSysfsL2 = %d, want %d", got, 2048<<10)
	}
	if got := probeSysfsL2(filepath.Join(dir, "missing")); got != l2Fallback {
		t.Fatalf("probeSysfsL2(missing) = %d, want fallback %d", got, l2Fallback)
	}
}
