package kernels

import (
	"bytes"
	"testing"
)

// FuzzKernelTally feeds arbitrary encoded rows through the compiled
// tally kernels and the reference loops and requires byte-identical
// results: same cellOf, same touched order, same counts, same stamps,
// same first rows. It then runs the compiled PoolScan against
// refPoolScan over those rows with quotas drawn from the fuzz input,
// requiring the same pool and the same leftover quotas.
// The CI fuzz-smoke job runs this for a bounded time in the default
// build, where the kernels under test are the optimized 8-lane
// bodies; the corpus doubles as a regression suite under -tags
// purego.
func FuzzKernelTally(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(5), uint8(3), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, 0, 7}, 23), uint8(16), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, d0, d1, d2 uint8) {
		// Decode the fuzz input into three attribute columns over
		// small domains; every byte lands in range, so all inputs are
		// valid encoded rows.
		doms := [3]int{int(d0%32) + 1, int(d1%32) + 1, int(d2%32) + 1}
		n := len(raw) / 3
		cols := make([][]int32, 3)
		for i := range cols {
			cols[i] = make([]int32, n)
			for r := 0; r < n; r++ {
				cols[i][r] = int32(int(raw[r*3+i]) % doms[i])
			}
		}
		cells := doms[0] * doms[1] * doms[2]
		s1 := doms[2]
		s0 := doms[1] * s1
		const epoch = 3

		check := func(tag string, cellOf, refCellOf, touched, refTouched []int, vals, refVals []float64, stamp, refStamp []uint32, first, refFirst []int32) {
			t.Helper()
			if !intsEqual(cellOf, refCellOf) {
				t.Fatalf("%s: cellOf diverges", tag)
			}
			if !intsEqual(touched, refTouched) {
				t.Fatalf("%s: touched diverges", tag)
			}
			for c := 0; c < cells; c++ {
				if stamp[c] != refStamp[c] {
					t.Fatalf("%s: stamp[%d] = %d, reference %d", tag, c, stamp[c], refStamp[c])
				}
				if stamp[c] == epoch && vals[c] != refVals[c] {
					t.Fatalf("%s: vals[%d] = %v, reference %v", tag, c, vals[c], refVals[c])
				}
				if stamp[c] == epoch && first[c] != refFirst[c] {
					t.Fatalf("%s: first[%d] = %d, reference %d", tag, c, first[c], refFirst[c])
				}
			}
		}

		// 3-way fused kernel.
		cellOf := make([]int, n)
		refCellOf := make([]int, n)
		vals := make([]float64, cells)
		refVals := make([]float64, cells)
		stamp := make([]uint32, cells)
		refStamp := make([]uint32, cells)
		first := make([]int32, cells)
		refFirst := make([]int32, cells)
		touched := Cells3Tally(cellOf, cols[0], cols[1], cols[2], s0, s1, vals, stamp, first, epoch, nil)
		refTouched := refCells3Tally(refCellOf, cols[0], cols[1], cols[2], s0, s1, refVals, refStamp, refFirst, epoch, nil)
		check("Cells3Tally", cellOf, refCellOf, touched, refTouched, vals, refVals, stamp, refStamp, first, refFirst)

		// 2-way fused kernel over the first two columns.
		cells2 := doms[0] * doms[1]
		cellOf2 := make([]int, n)
		refCellOf2 := make([]int, n)
		vals2 := make([]float64, cells2)
		refVals2 := make([]float64, cells2)
		stamp2 := make([]uint32, cells2)
		refStamp2 := make([]uint32, cells2)
		first2 := make([]int32, cells2)
		refFirst2 := make([]int32, cells2)
		touched = Cells2Tally(cellOf2, cols[0], cols[1], doms[1], vals2, stamp2, first2, epoch, nil)
		refTouched = refCells2Tally(refCellOf2, cols[0], cols[1], doms[1], refVals2, refStamp2, refFirst2, epoch, nil)
		for c := 0; c < cells2; c++ {
			if stamp2[c] != refStamp2[c] || (stamp2[c] == epoch && (vals2[c] != refVals2[c] || first2[c] != refFirst2[c])) {
				t.Fatalf("Cells2Tally diverges at cell %d", c)
			}
		}
		if !intsEqual(cellOf2, refCellOf2) || !intsEqual(touched, refTouched) {
			t.Fatal("Cells2Tally diverges")
		}

		// Compiled plain + blocked tallies over the 3-way cells, each
		// against the reference flat tally: the blocked union must
		// match it cell for cell, first rows included.
		flatVals := make([]float64, cells)
		flatStamp := make([]uint32, cells)
		flatFirst := make([]int32, cells)
		refFlat := refTally(refCellOf, flatVals, flatStamp, flatFirst, epoch, nil)
		clear(vals)
		clear(stamp)
		flat := Tally(refCellOf, vals, stamp, first, epoch, nil)
		check("Tally", refCellOf, refCellOf, flat, refFlat, vals, flatVals, stamp, flatStamp, first, flatFirst)
		clear(vals)
		clear(stamp)
		var blocked []int
		block := cells/3 + 1
		for lo := 0; lo < cells; lo += block {
			hi := min(lo+block, cells)
			blocked = TallyRange(refCellOf, vals, stamp, first, epoch, lo, hi, blocked)
		}
		if len(refFlat) != len(blocked) {
			t.Fatalf("blocked touched %d cells, flat %d", len(blocked), len(refFlat))
		}
		for c := 0; c < cells; c++ {
			if stamp[c] != flatStamp[c] || (stamp[c] == epoch && (vals[c] != flatVals[c] || first[c] != flatFirst[c])) {
				t.Fatalf("blocked tally disagrees with flat at cell %d", c)
			}
		}

		// Pool scan over the 3-way cells: the raw bytes, read again,
		// give each cell a quota in [0, 8), and roughly half the cells
		// are stamped live; the rest keep stale values that must never
		// read as quota.
		qVals := make([]float64, cells)
		qStamp := make([]uint32, cells)
		want := 0
		for c := 0; c < cells; c++ {
			var b byte
			if len(raw) > 0 {
				b = raw[c%len(raw)] ^ byte(c)
			}
			qVals[c] = float64(b & 7)
			if b&8 != 0 {
				qStamp[c] = epoch
				want += int(b & 7)
			}
		}
		refQVals := append([]float64(nil), qVals...)
		pool := PoolScan(refCellOf, qVals, qStamp, epoch, nil, want)
		refPool := refPoolScan(refCellOf, refQVals, qStamp, epoch, nil, want)
		if !intsEqual(pool, refPool) {
			t.Fatalf("PoolScan pool %v, reference %v", pool, refPool)
		}
		for c := 0; c < cells; c++ {
			if qStamp[c] == epoch && qVals[c] != refQVals[c] {
				t.Fatalf("PoolScan leftover quota at cell %d: %v, reference %v", c, qVals[c], refQVals[c])
			}
		}
	})
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
