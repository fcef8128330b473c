package core

import (
	"math"
	"math/rand/v2"

	"github.com/netdpsyn/netdpsyn/internal/core/kernels"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// gumDust is the gap below which a cell's deficit or excess cannot be
// satisfied by integer record moves: noisy targets spread tiny
// fractional counts over huge cell spaces after projection, and gaps
// below half a record would only soak up the move budget.
const gumDust = 0.5

// gumDenseCellFloor is the cell-space size every marginal may arena
// regardless of the record count; above it a marginal is dense only
// while its cells stay within 4·n (see NewGUM), so the arena's extra
// memory is O(records), never O(domain product).
const gumDenseCellFloor = 1 << 20

// gumSweepFactor gates the linear gap sweep: when the marginal's cell
// space is at most this many times the touched+target set, a single
// ascending pass over the arena (kernels.GapSweep) replaces the
// per-plan sort of the touched cells — the sort was ~a third of gum
// wall. Beyond that the touched set is sorted and merged instead
// (kernels.GapMerge); both orders are ascending-cell, so the plans
// are byte-identical. Var, not const: the equivalence tests pin it to
// 0 / huge to force each path.
var gumSweepFactor = 8

// gumTileBytes is the dense-arena footprint (vals + stamp) above
// which the tally runs in cell-blocked passes sized to stay
// L2-resident, instead of one scatter pass over the whole arena.
// Probed once from sysfs with a safe fallback. Var for tests.
var gumTileBytes = kernels.L2Bytes()

// gumTileMaxPasses caps how many blocked passes a single tally may
// take: each pass re-reads the cellOf stream, so past this point the
// stream traffic outweighs the locality win and one scatter pass is
// cheaper.
const gumTileMaxPasses = 8

// cellGap is one cell's distance from its target count.
type cellGap = kernels.CellGap

// gumScratch is one worker's reusable arena for GUM's planning pass.
// It is allocated once per GUM run and reused across every
// (round, marginal) plan handed to that worker slot, so steady-state
// planUpdate allocates ~nothing: every slice below is reset by
// re-slicing to zero length, and the dense arrays are "cleared" by an
// epoch bump (O(touched cells), not O(cell space)).
//
// The arena carries only buffers, never values: planUpdate's output
// is a pure function of (ds, target, alpha, seed), so which worker's
// scratch served a task cannot perturb the plan (the engine
// determinism contract, see parallelForWorker). The over list is not
// here: it outlives the plan as the gap cache, so the gumPlan owns it.
type gumScratch struct {
	cellOf  []int     // current cell of every row of ds
	touched []int     // cells with nonzero current count, first-touch order
	under   []cellGap // cells below target by more than gumDust
	pool    []int     // movable rows drawn from over cells

	// Dense arena, sized to the largest dense-eligible marginal's
	// cell space. Exactly one of vals/vals32 is allocated (Cells32
	// selects float32 cells, halving the arena's cache footprint);
	// the chosen array holds per-cell counts during the tally and
	// per-cell move quotas during the pool scan. rep holds each under
	// cell's representative row (-1 = under member with no rep yet).
	// stamp gates every read: a cell is live only while stamp[c]
	// matches the current phase's epoch, so nothing is ever zeroed
	// wholesale between plans.
	vals   []float64
	vals32 []float32
	rep    []int32
	stamp  []uint32
	epoch  uint32

	// Sparse fallback for marginals whose projected cell space is too
	// large to arena. The maps are cleared per plan; iteration order
	// never reaches the output (touched cells are extracted and
	// sorted before any ordered use).
	counts map[int]float64
	quota  map[int]float64
	srep   map[int]int

	// Per-plan RNG, reseeded for every (round, marginal) task so
	// scratch reuse cannot perturb the stream.
	pcg *rand.PCG
	rng *rand.Rand
}

// newGumScratch sizes an arena for rows-record plans; denseCells is
// the largest dense marginal's cell space (0 if every marginal takes
// the sparse path). cells32 picks the float32 arena.
func newGumScratch(rows, denseCells int, cells32 bool) *gumScratch {
	sc := &gumScratch{
		cellOf: make([]int, rows),
		pcg:    rand.NewPCG(0, 0),
	}
	sc.rng = rand.New(sc.pcg)
	if denseCells > 0 {
		if cells32 {
			sc.vals32 = make([]float32, denseCells)
		} else {
			sc.vals = make([]float64, denseCells)
		}
		sc.rep = make([]int32, denseCells)
		sc.stamp = make([]uint32, denseCells)
	}
	return sc
}

// reseed points the scratch RNG at one plan's stream. The derivation
// matches the pre-arena code path (rand.NewPCG per plan) exactly, so
// reuse is invisible in the output.
func (sc *gumScratch) reseed(seed uint64) {
	sc.pcg.Seed(seed, seed^0x6a09e667f3bcc908)
}

// phases advances the arena epoch for one plan and returns the three
// phase stamps: countE marks tallied cells, quotaE marks over cells
// holding move quotas, repE marks under cells holding representative
// rows. The phases run strictly in that order within planUpdate and
// over/under cells are disjoint, so later stamps only ever overwrite
// state the plan has finished reading. Near uint32 wraparound the
// stamp array is zeroed once so a stale stamp from ~4 billion plans
// ago cannot read as live.
func (sc *gumScratch) phases() (countE, quotaE, repE uint32) {
	if sc.epoch > math.MaxUint32-3 {
		clear(sc.stamp)
		sc.epoch = 0
	}
	sc.epoch += 3
	return sc.epoch - 2, sc.epoch - 1, sc.epoch
}

// floatBytes reports the in-memory size of the arena element type.
func floatBytes[F kernels.Float]() int {
	var z F
	if _, ok := any(z).(float32); ok {
		return 4
	}
	return 8
}

// denseTally fills cellOf with every row's flattened cell
// and tallies the counts into the arena at countE, leaving
// sc.touched holding every nonzero cell (unsorted, first-touch
// order). The stride accumulation and the count pass are fused into
// ONE row sweep through the kernels package — not len(Attrs)
// accumulation passes plus a count pass. When the arena's working
// set (vals + stamp over the marginal's cells) exceeds the L2
// budget, the fused pass is split: cellOf is computed in one
// streaming pass, then the tally scatters in ascending cell blocks
// that stay cache-resident. Blocked or not, the touched SET is
// identical and planUpdate orders cells before any ordered use, so
// the plan is byte-identical either way.
func denseTally[F kernels.Float](sc *gumScratch, vals []F, ds *dataset.Encoded, m *marginal.Marginal, cells int, countE uint32) {
	n := ds.NumRows()
	cellOf := sc.cellOf[:n]
	stamp := sc.stamp
	touched := sc.touched[:0]

	if footprint := cells * (floatBytes[F]() + 4); footprint > gumTileBytes && n >= cells {
		blockCells := gumTileBytes / (floatBytes[F]() + 4)
		if minBlock := (cells + gumTileMaxPasses - 1) / gumTileMaxPasses; blockCells < minBlock {
			blockCells = minBlock
		}
		m.CellsInto(ds, cellOf)
		for lo := 0; lo < cells; lo += blockCells {
			hi := lo + blockCells
			if hi > cells {
				hi = cells
			}
			touched = kernels.TallyRange(cellOf, vals, stamp, countE, lo, hi, touched)
		}
		sc.touched = touched
		return
	}

	attrs, strides := m.Attrs, m.Strides()
	switch len(attrs) {
	case 2:
		touched = kernels.Cells2Tally(cellOf, ds.Cols[attrs[0]], ds.Cols[attrs[1]],
			strides[0], vals, stamp, countE, touched)
	case 3:
		touched = kernels.Cells3Tally(cellOf, ds.Cols[attrs[0]], ds.Cols[attrs[1]],
			ds.Cols[attrs[2]], strides[0], strides[1], vals, stamp, countE, touched)
	default:
		m.CellsInto(ds, cellOf)
		touched = kernels.Tally(cellOf, vals, stamp, countE, touched)
	}
	sc.touched = touched
}

// sparseTally is denseTally's fallback for cell spaces too large to
// arena: counts live in a map, then the touched set is extracted so
// the caller can order it deterministically.
func (sc *gumScratch) sparseTally(ds *dataset.Encoded, m *marginal.Marginal) {
	n := ds.NumRows()
	cellOf := sc.cellOf[:n]
	m.CellsInto(ds, cellOf)
	if sc.counts == nil {
		sc.counts = make(map[int]float64, n)
		sc.quota = make(map[int]float64)
		sc.srep = make(map[int]int)
	} else {
		clear(sc.counts)
	}
	for _, c := range cellOf {
		sc.counts[c]++
	}
	touched := sc.touched[:0]
	for c := range sc.counts {
		touched = append(touched, c)
	}
	sc.touched = touched
}
