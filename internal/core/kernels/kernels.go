// Package kernels holds the innermost row- and cell-sweep loops of
// GUM planning and marginal tallying — the memory-bound hot paths
// under the synthesis stage (~90% of end-to-end runtime, §3.1 of the
// paper). The package compiles in one of two interchangeable
// variants selected by build tag:
//
//   - default ("optimized"): 8-lane unrolled, bounds-check-hinted
//     kernels, plus a windowed fast-skip in the gap sweep;
//   - -tags purego ("purego"): the straight-line reference loops in
//     ref.go, re-exported unchanged.
//
// The two variants are byte-identical by contract: same counts, same
// first rows, same touched/over/under/pool contents in the same
// order, same float accumulation order. CI enforces this three ways — the in-package
// equivalence tests and FuzzKernelTally compare every exported
// kernel against its reference, the purego CI job runs the whole
// core/marginal suite with -tags purego under -race, and the
// cross-variant DETHASH step diffs the full-pipeline fingerprint of
// both builds.
//
// Every kernel that touches dense cell values is generic over the
// cell element type (float32 or float64): GUM's Cells32 mode halves
// the dense arena's cache footprint by storing counts and quotas as
// float32. Cell counts and move quotas are integers well below 2²⁴,
// so the narrowing is exact and Cells32 output is byte-identical to
// the float64 arena (see the GUMConfig.Cells32 docs for the
// contract and its bound).
package kernels

// Float is the dense cell element type: float64 (the default arena)
// or float32 (GUM's Cells32 mode).
type Float interface {
	~float32 | ~float64
}

// CellGap is one cell's distance from its target count. GUM's
// over/under gap lists are built from these by the gap sweep.
type CellGap struct {
	Cell int
	Gap  float64
}
