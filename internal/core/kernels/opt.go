//go:build !purego

package kernels

import (
	"math"
	"slices"
)

// The optimized variant: 8-lane unrolled loops with re-sliced
// operands so the compiler can prove bounds once per lane group, and
// a windowed all-miss fast path in GapSweep. Cell-indexed accesses
// (vals[c], stamp[c]) keep their bounds checks — cells are
// data-dependent — but the row-major streams dominate and those
// unroll cleanly. Every function here must stay byte-identical to
// its ref.go twin; the in-package tests and FuzzKernelTally compare
// them element for element.

// Variant names the compiled kernel implementation; it is stamped
// into bench metadata so trajectories never compare across variants.
func Variant() string { return "optimized" }

// Cells2 computes out[r] = a[r]*s0 + b[r] for every row.
func Cells2(out []int, a, b []int32, s0 int) {
	n := len(out)
	if len(a) < n || len(b) < n {
		panic("kernels: column shorter than out")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := out[r : r+8 : r+8]
		av := a[r : r+8 : r+8]
		bv := b[r : r+8 : r+8]
		o[0] = int(av[0])*s0 + int(bv[0])
		o[1] = int(av[1])*s0 + int(bv[1])
		o[2] = int(av[2])*s0 + int(bv[2])
		o[3] = int(av[3])*s0 + int(bv[3])
		o[4] = int(av[4])*s0 + int(bv[4])
		o[5] = int(av[5])*s0 + int(bv[5])
		o[6] = int(av[6])*s0 + int(bv[6])
		o[7] = int(av[7])*s0 + int(bv[7])
	}
	for ; r < n; r++ {
		out[r] = int(a[r])*s0 + int(b[r])
	}
}

// Cells3 computes out[r] = a[r]*s0 + b[r]*s1 + c[r] for every row.
func Cells3(out []int, a, b, c []int32, s0, s1 int) {
	n := len(out)
	if len(a) < n || len(b) < n || len(c) < n {
		panic("kernels: column shorter than out")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := out[r : r+8 : r+8]
		av := a[r : r+8 : r+8]
		bv := b[r : r+8 : r+8]
		cv := c[r : r+8 : r+8]
		o[0] = int(av[0])*s0 + int(bv[0])*s1 + int(cv[0])
		o[1] = int(av[1])*s0 + int(bv[1])*s1 + int(cv[1])
		o[2] = int(av[2])*s0 + int(bv[2])*s1 + int(cv[2])
		o[3] = int(av[3])*s0 + int(bv[3])*s1 + int(cv[3])
		o[4] = int(av[4])*s0 + int(bv[4])*s1 + int(cv[4])
		o[5] = int(av[5])*s0 + int(bv[5])*s1 + int(cv[5])
		o[6] = int(av[6])*s0 + int(bv[6])*s1 + int(cv[6])
		o[7] = int(av[7])*s0 + int(bv[7])*s1 + int(cv[7])
	}
	for ; r < n; r++ {
		out[r] = int(a[r])*s0 + int(b[r])*s1 + int(c[r])
	}
}

// AccumStride adds col[r]*s into out[r] (or initializes out when
// init is set) — one column of a generic marginal cell computation.
func AccumStride(out []int, col []int32, s int, init bool) {
	n := len(out)
	if len(col) < n {
		panic("kernels: column shorter than out")
	}
	r := 0
	if init {
		for ; r+8 <= n; r += 8 {
			o := out[r : r+8 : r+8]
			cv := col[r : r+8 : r+8]
			o[0] = int(cv[0]) * s
			o[1] = int(cv[1]) * s
			o[2] = int(cv[2]) * s
			o[3] = int(cv[3]) * s
			o[4] = int(cv[4]) * s
			o[5] = int(cv[5]) * s
			o[6] = int(cv[6]) * s
			o[7] = int(cv[7]) * s
		}
		for ; r < n; r++ {
			out[r] = int(col[r]) * s
		}
		return
	}
	for ; r+8 <= n; r += 8 {
		o := out[r : r+8 : r+8]
		cv := col[r : r+8 : r+8]
		o[0] += int(cv[0]) * s
		o[1] += int(cv[1]) * s
		o[2] += int(cv[2]) * s
		o[3] += int(cv[3]) * s
		o[4] += int(cv[4]) * s
		o[5] += int(cv[5]) * s
		o[6] += int(cv[6]) * s
		o[7] += int(cv[7]) * s
	}
	for ; r < n; r++ {
		out[r] += int(col[r]) * s
	}
}

// tallyOne folds row r's cell c into the stamped arena, recording r
// in first and appending c to touched on the cell's first touch.
func tallyOne[F Float](r, c int, vals []F, stamp []uint32, first []int32, epoch uint32, touched []int) []int {
	if stamp[c] != epoch {
		stamp[c] = epoch
		vals[c] = 1
		first[c] = int32(r)
		touched = append(touched, c)
	} else {
		vals[c]++
	}
	return touched
}

// Tally counts rows per cell into the epoch-stamped dense arena,
// records each cell's first row in first and appends first-seen
// cells to touched. See refTally for semantics.
func Tally[F Float](cells []int, vals []F, stamp []uint32, first []int32, epoch uint32, touched []int) []int {
	n := len(cells)
	r := 0
	for ; r+8 <= n; r += 8 {
		cv := cells[r : r+8 : r+8]
		touched = tallyOne(r, cv[0], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+1, cv[1], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+2, cv[2], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+3, cv[3], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+4, cv[4], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+5, cv[5], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+6, cv[6], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+7, cv[7], vals, stamp, first, epoch, touched)
	}
	for ; r < n; r++ {
		touched = tallyOne(r, cells[r], vals, stamp, first, epoch, touched)
	}
	return touched
}

// TallyRange is Tally restricted to cells in [lo, hi) — one pass of
// the L2-blocked tally. Most cells miss the block, so the unrolled
// body front-loads the cheap range test.
func TallyRange[F Float](cells []int, vals []F, stamp []uint32, first []int32, epoch uint32, lo, hi int, touched []int) []int {
	n := len(cells)
	r := 0
	for ; r+8 <= n; r += 8 {
		cv := cells[r : r+8 : r+8]
		for i := 0; i < 8; i++ {
			c := cv[i]
			if c < lo || c >= hi {
				continue
			}
			touched = tallyOne(r+i, c, vals, stamp, first, epoch, touched)
		}
	}
	for ; r < n; r++ {
		c := cells[r]
		if c < lo || c >= hi {
			continue
		}
		touched = tallyOne(r, c, vals, stamp, first, epoch, touched)
	}
	return touched
}

// Cells2Tally fuses the two-attribute cell computation with Tally,
// recording per-row cells in cellOf.
func Cells2Tally[F Float](cellOf []int, a, b []int32, s0 int, vals []F, stamp []uint32, first []int32, epoch uint32, touched []int) []int {
	n := len(cellOf)
	if len(a) < n || len(b) < n {
		panic("kernels: column shorter than cellOf")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := cellOf[r : r+8 : r+8]
		av := a[r : r+8 : r+8]
		bv := b[r : r+8 : r+8]
		o[0] = int(av[0])*s0 + int(bv[0])
		o[1] = int(av[1])*s0 + int(bv[1])
		o[2] = int(av[2])*s0 + int(bv[2])
		o[3] = int(av[3])*s0 + int(bv[3])
		o[4] = int(av[4])*s0 + int(bv[4])
		o[5] = int(av[5])*s0 + int(bv[5])
		o[6] = int(av[6])*s0 + int(bv[6])
		o[7] = int(av[7])*s0 + int(bv[7])
		touched = tallyOne(r, o[0], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+1, o[1], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+2, o[2], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+3, o[3], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+4, o[4], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+5, o[5], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+6, o[6], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+7, o[7], vals, stamp, first, epoch, touched)
	}
	for ; r < n; r++ {
		c := int(a[r])*s0 + int(b[r])
		cellOf[r] = c
		touched = tallyOne(r, c, vals, stamp, first, epoch, touched)
	}
	return touched
}

// Cells3Tally fuses the three-attribute cell computation with Tally.
func Cells3Tally[F Float](cellOf []int, a, b, c []int32, s0, s1 int, vals []F, stamp []uint32, first []int32, epoch uint32, touched []int) []int {
	n := len(cellOf)
	if len(a) < n || len(b) < n || len(c) < n {
		panic("kernels: column shorter than cellOf")
	}
	r := 0
	for ; r+8 <= n; r += 8 {
		o := cellOf[r : r+8 : r+8]
		av := a[r : r+8 : r+8]
		bv := b[r : r+8 : r+8]
		cv := c[r : r+8 : r+8]
		o[0] = int(av[0])*s0 + int(bv[0])*s1 + int(cv[0])
		o[1] = int(av[1])*s0 + int(bv[1])*s1 + int(cv[1])
		o[2] = int(av[2])*s0 + int(bv[2])*s1 + int(cv[2])
		o[3] = int(av[3])*s0 + int(bv[3])*s1 + int(cv[3])
		o[4] = int(av[4])*s0 + int(bv[4])*s1 + int(cv[4])
		o[5] = int(av[5])*s0 + int(bv[5])*s1 + int(cv[5])
		o[6] = int(av[6])*s0 + int(bv[6])*s1 + int(cv[6])
		o[7] = int(av[7])*s0 + int(bv[7])*s1 + int(cv[7])
		touched = tallyOne(r, o[0], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+1, o[1], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+2, o[2], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+3, o[3], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+4, o[4], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+5, o[5], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+6, o[6], vals, stamp, first, epoch, touched)
		touched = tallyOne(r+7, o[7], vals, stamp, first, epoch, touched)
	}
	for ; r < n; r++ {
		cc := int(a[r])*s0 + int(b[r])*s1 + int(c[r])
		cellOf[r] = cc
		touched = tallyOne(r, cc, vals, stamp, first, epoch, touched)
	}
	return touched
}

// GapSweep classifies every cell of the dense arena against its
// target in ascending-cell order (see refGapSweep for the full
// semantics). The optimized body scans the stamp array in 8-cell
// windows: a window with no live cell only drains target cells, so
// the per-cell classification runs only where counts actually
// landed. Term order is ascending-cell either way — byte-identical
// to the reference.
func GapSweep[F Float](vals []F, stamp []uint32, epoch uint32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	cells := len(counts)
	if len(vals) < cells || len(stamp) < cells {
		panic("kernels: arena shorter than counts")
	}
	vals = vals[:cells:cells]
	stamp = stamp[:cells:cells]
	var l1 float64
	ki, kn := 0, len(tcells)
	c := 0
	for ; c+8 <= cells; c += 8 {
		s := stamp[c : c+8 : c+8]
		if s[0] != epoch && s[1] != epoch && s[2] != epoch && s[3] != epoch &&
			s[4] != epoch && s[5] != epoch && s[6] != epoch && s[7] != epoch {
			// No counted cell in the window: only target cells
			// contribute, each as a full-gap under. tcells is
			// ascending, so this preserves ascending-cell order.
			for ki < kn && tcells[ki] < c+8 {
				tc := tcells[ki]
				gap := counts[tc]
				l1 += gap
				under = append(under, CellGap{tc, gap})
				ki++
			}
			continue
		}
		for i := c; i < c+8; i++ {
			live := s[i-c] == epoch
			if ki < kn && tcells[ki] == i {
				ki++
				if !live {
					gap := counts[i]
					l1 += gap
					under = append(under, CellGap{i, gap})
					continue
				}
			} else if !live {
				continue
			}
			d := float64(vals[i]) - counts[i]
			l1 += math.Abs(d)
			if d > dust {
				over = append(over, CellGap{i, d})
			} else if d < -dust {
				under = append(under, CellGap{i, -d})
			}
		}
	}
	for ; c < cells; c++ {
		live := stamp[c] == epoch
		if ki < kn && tcells[ki] == c {
			ki++
			if !live {
				gap := counts[c]
				l1 += gap
				under = append(under, CellGap{c, gap})
				continue
			}
		} else if !live {
			continue
		}
		d := float64(vals[c]) - counts[c]
		l1 += math.Abs(d)
		if d > dust {
			over = append(over, CellGap{c, d})
		} else if d < -dust {
			under = append(under, CellGap{c, -d})
		}
	}
	return over, under, l1
}

// GapMerge is the sorted-touched twin of GapSweep for large cell
// spaces. The merge is pointer-chasing either way; the reference
// loop is already optimal.
func GapMerge[F Float](touched []int, vals []F, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	return refGapMerge(touched, vals, counts, tcells, dust, over, under)
}

// PoolScan collects donor rows in row order, consuming per-cell
// quotas from the stamped arena (see refPoolScan); want must be the
// summed quota of the stamped cells. The body is branch-free: every
// row is stored at pool[k] and the qualifying mask m advances k and
// consumes a quota unit, so a data-dependent test never steers
// control flow. The capacity invariant cap(pool)-k >= want makes the
// unconditional store safe: 8-row groups run while want >= 8, then
// the scalar tail runs while want > 0.
func PoolScan[F Float](cellOf []int, vals []F, stamp []uint32, epoch uint32, pool []int, want int) []int {
	pool = slices.Grow(pool, want)
	k := len(pool)
	buf := pool[:cap(pool)]
	n := len(cellOf)
	r := 0
	for ; r+8 <= n && want >= 8; r += 8 {
		cv := cellOf[r : r+8 : r+8]
		k0 := k
		for i := 0; i < 8; i++ {
			c := cv[i]
			m := b2i(stamp[c] == epoch) & b2i(vals[c] >= 1)
			buf[k] = r + i
			k += m
			vals[c] -= F(m)
		}
		want -= k - k0
	}
	for ; r < n && want > 0; r++ {
		c := cellOf[r]
		m := b2i(stamp[c] == epoch) & b2i(vals[c] >= 1)
		buf[k] = r
		k += m
		vals[c] -= F(m)
		want -= m
	}
	return buf[:k]
}

// b2i converts a comparison result to 0 or 1; the compiler lowers it
// to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
