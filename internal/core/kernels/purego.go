//go:build purego

package kernels

// The purego variant: every exported kernel is the reference loop
// from ref.go, unchanged. This build exists so the optimized kernels
// can never silently drift — CI runs the full core/marginal suite
// with -tags purego under -race and diffs the DETHASH fingerprint
// against the default build.

// Variant names the compiled kernel implementation; it is stamped
// into bench metadata so trajectories never compare across variants.
func Variant() string { return "purego" }

// Cells2 computes out[r] = a[r]*s0 + b[r] for every row.
func Cells2(out []int, a, b []int32, s0 int) { refCells2(out, a, b, s0) }

// Cells3 computes out[r] = a[r]*s0 + b[r]*s1 + c[r] for every row.
func Cells3(out []int, a, b, c []int32, s0, s1 int) { refCells3(out, a, b, c, s0, s1) }

// AccumStride adds col[r]*s into out[r] (or initializes out when
// init is set) — one column of a generic marginal cell computation.
func AccumStride(out []int, col []int32, s int, init bool) { refAccumStride(out, col, s, init) }

// Tally counts rows per cell into the epoch-stamped dense arena,
// records each cell's first row in first and appends first-seen
// cells to touched. See refTally for semantics.
func Tally[F Float](cells []int, vals []F, stamp []uint32, first []int32, epoch uint32, touched []int) []int {
	return refTally(cells, vals, stamp, first, epoch, touched)
}

// TallyRange is Tally restricted to cells in [lo, hi) — one pass of
// the L2-blocked tally.
func TallyRange[F Float](cells []int, vals []F, stamp []uint32, first []int32, epoch uint32, lo, hi int, touched []int) []int {
	return refTallyRange(cells, vals, stamp, first, epoch, lo, hi, touched)
}

// Cells2Tally fuses the two-attribute cell computation with Tally,
// recording per-row cells in cellOf.
func Cells2Tally[F Float](cellOf []int, a, b []int32, s0 int, vals []F, stamp []uint32, first []int32, epoch uint32, touched []int) []int {
	return refCells2Tally(cellOf, a, b, s0, vals, stamp, first, epoch, touched)
}

// Cells3Tally fuses the three-attribute cell computation with Tally.
func Cells3Tally[F Float](cellOf []int, a, b, c []int32, s0, s1 int, vals []F, stamp []uint32, first []int32, epoch uint32, touched []int) []int {
	return refCells3Tally(cellOf, a, b, c, s0, s1, vals, stamp, first, epoch, touched)
}

// GapSweep classifies every cell of the dense arena against its
// target in ascending-cell order. See refGapSweep for semantics.
func GapSweep[F Float](vals []F, stamp []uint32, epoch uint32, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	return refGapSweep(vals, stamp, epoch, counts, tcells, dust, over, under)
}

// GapMerge is the sorted-touched twin of GapSweep for large cell
// spaces. See refGapMerge for semantics.
func GapMerge[F Float](touched []int, vals []F, counts []float64, tcells []int, dust float64, over, under []CellGap) ([]CellGap, []CellGap, float64) {
	return refGapMerge(touched, vals, counts, tcells, dust, over, under)
}

// PoolScan collects donor rows in row order, consuming per-cell
// quotas from the stamped arena; want (the summed quota) bounds the
// scan.
func PoolScan[F Float](cellOf []int, vals []F, stamp []uint32, epoch uint32, pool []int, want int) []int {
	return refPoolScan(cellOf, vals, stamp, epoch, pool, want)
}
