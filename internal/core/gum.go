package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"github.com/netdpsyn/netdpsyn/internal/core/kernels"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// GUMConfig tunes the Gradually Update Method record synthesizer.
type GUMConfig struct {
	// Iterations is the maximum number of update rounds over the
	// marginal set (the paper defaults to 200).
	Iterations int
	// InitAlpha is the initial fraction of the required record moves
	// applied per round; it decays geometrically so the dataset
	// settles (PrivSyn uses 1.0 and 0.84).
	InitAlpha, AlphaDecay float64
	// DuplicateProb is the probability of satisfying a deficit by
	// duplicating an existing matching record (which preserves its
	// other attributes) instead of overwriting the marginal's
	// attributes in place.
	DuplicateProb float64
	// Seed drives all sampling.
	Seed uint64
	// Workers bounds the pool that plans the per-marginal update
	// passes concurrently (≤ 0 means all cores). Each pass draws from
	// its own (Seed, round, marginal)-derived RNG, so the output is
	// identical for any worker count.
	Workers int
	// Cells32 stores the dense arena's per-cell counts and move
	// quotas as float32 instead of float64, cutting the hot arrays'
	// cache footprint by a third (vals+stamp per cell: 8 bytes
	// instead of 12) for large cell spaces. The arena only ever holds
	// integers — unit-increment tallies and stochastically rounded
	// quotas — and float32 is exact for integers below 2²⁴, so
	// synthesis output stays byte-identical to the float64 arena for
	// any realistic record count (the equivalence suite asserts it).
	// Off by default; a cache lever for huge dense marginals.
	Cells32 bool
	// denseMode overrides the per-marginal dense/sparse counting
	// decision for tests: the two paths are contractually
	// byte-identical, and the equivalence suite forces each in turn.
	denseMode int
}

// denseMode values: 0 decides per marginal at NewGUM (dense iff the
// cell space fits max(4·n, gumDenseCellFloor)); the forced modes are
// test-only.
const (
	gumDenseAuto = iota
	gumDenseForced
	gumSparseForced
)

// DefaultGUMConfig returns the paper's defaults.
func DefaultGUMConfig() GUMConfig {
	return GUMConfig{Iterations: 200, InitAlpha: 1.0, AlphaDecay: 0.84, DuplicateProb: 0.5, Seed: 1}
}

// GUM iteratively updates an encoded dataset until its marginals
// approach the published targets. The initial dataset init is
// modified in place and returned; use InitIndependent for plain GUM
// or InitGUMMI for NetDPSyn's marginal initialization.
type GUM struct {
	cfg        GUMConfig
	targets    []*target
	denseCells int // largest dense marginal's cell space (arena size)
}

type target struct {
	m      *marginal.Marginal
	counts []float64 // scaled so the sum equals the synthetic record count
	// dense selects the arena counting path: current counts, move
	// quotas, and representative rows live in epoch-stamped arrays
	// indexed by cell instead of maps. Chosen at NewGUM time; both
	// paths produce byte-identical plans.
	dense bool
	// tcells are the cells with target > gumDust, ascending — the
	// only zero-count cells that can contribute deficits. Fixed per
	// run, so each plan merges it with the touched set instead of
	// rescanning the whole (possibly huge) target vector.
	tcells []int
}

// NewGUM prepares a synthesizer for the given published marginals and
// synthetic record count n.
func NewGUM(ms []*marginal.Marginal, n int, cfg GUMConfig) *GUM {
	g := &GUM{cfg: cfg}
	denseLimit := 4 * n
	if denseLimit < gumDenseCellFloor {
		denseLimit = gumDenseCellFloor
	}
	for _, m := range ms {
		t := &target{m: m, counts: append([]float64(nil), m.Counts...)}
		var sum float64
		for _, c := range t.counts {
			if c > 0 {
				sum += c
			} else {
				c = 0
			}
		}
		if sum > 0 {
			scale := float64(n) / sum
			for i, c := range t.counts {
				if c < 0 {
					c = 0
				}
				t.counts[i] = c * scale
			}
		}
		switch cfg.denseMode {
		case gumDenseForced:
			t.dense = true
		case gumSparseForced:
			t.dense = false
		default:
			t.dense = len(t.counts) <= denseLimit
		}
		if t.dense && len(t.counts) > g.denseCells {
			g.denseCells = len(t.counts)
		}
		for c, tc := range t.counts {
			if tc > gumDust {
				t.tcells = append(t.tcells, c)
			}
		}
		g.targets = append(g.targets, t)
	}
	return g
}

// Run applies the update rounds to ds in place and returns the
// per-round average L1 error (‖S−T‖₁ / n averaged over marginals),
// which decreases as the synthesis converges.
func (g *GUM) Run(ds *dataset.Encoded) []float64 {
	return g.run(ds, newEngine(g.cfg.Workers))
}

// run is Run on a caller-provided worker pool (the pipeline threads
// its engine through so stage timings capture GUM's busy time).
//
// Each round plans every marginal's update pass against ds
// concurrently, then applies the plans sequentially in marginal
// order. Planning only reads ds and every apply waits for the whole
// planning fan-out, so every plan sees ds as it stood before the
// round. A plan — the O(records × attrs) hot path that dominates
// end-to-end runtime — is a pure function of (ds, target, alpha,
// per-pass RNG), so the fan-out cannot perturb the output: a pass's
// RNG derives from (Seed, round, marginal index), never from worker
// identity or completion order.
//
// Once alpha has decayed, most plans draw all-zero move quotas and
// change nothing. A marginal whose attributes no applied move has
// written since its last full plan still has that plan's gaps, so it
// replays only the quota draws from them (see planTarget) and pays
// for a re-tally only when a quota comes out non-zero.
func (g *GUM) run(ds *dataset.Encoded, eng *engine) []float64 {
	n := ds.NumRows()
	if n == 0 || len(g.targets) == 0 {
		return nil
	}
	errs := make([]float64, 0, g.cfg.Iterations)
	alpha := g.cfg.InitAlpha
	// Steady-state arenas: one plan per target (its moves/row buffers
	// live until the sequential apply, then are reused next round; its
	// gap cache lives until a move dirties the target) and one scratch
	// per worker slot (reused across every (round, marginal) task that
	// slot runs — see gumScratch).
	plans := make([]gumPlan, len(g.targets))
	scratch := make([]*gumScratch, eng.workers)
	maxAttrs := 0
	for _, t := range g.targets {
		if len(t.m.Attrs) > maxAttrs {
			maxAttrs = len(t.m.Attrs)
		}
	}
	codes := make([]int32, maxAttrs) // applyPlan's cell-decode buffer
	dirty := make([]bool, len(ds.Cols))
	// Chunked plan fan-out: with a huge published-marginal store the
	// per-task handout overhead (one atomic claim plus busy-clock
	// sampling per marginal) starts to show, so tasks are claimed in
	// contiguous shards of ~4 chunks per worker — small enough to
	// balance uneven marginal sizes, large enough to amortize the
	// handout. Scheduling never reaches the output (plans are pure
	// functions of (ds, target, alpha, seed)).
	planChunk := len(g.targets) / (eng.workers * 4)
	if planChunk > 64 {
		planChunk = 64
	}
	for it := 0; it < g.cfg.Iterations; it++ {
		base := it * len(g.targets)
		eng.parallelForWorkerChunked(len(g.targets), planChunk, func(w, ti int) {
			sc := scratch[w]
			if sc == nil {
				sc = newGumScratch(n, g.denseCells, g.cfg.Cells32)
				scratch[w] = sc
			}
			seed := taskSeed(g.cfg.Seed, "gum-update", base+ti)
			planTarget(ds, g.targets[ti], alpha, g.cfg.DuplicateProb, seed, sc, &plans[ti])
		})
		roundErr := g.applyRound(ds, plans, codes, dirty)
		errs = append(errs, roundErr/float64(len(g.targets))/float64(n))
		alpha *= g.cfg.AlphaDecay
	}
	return errs
}

// applyRound applies the round's plans to ds in marginal order and
// returns their summed L1 error. It then drops the clean mark of
// every plan that reads a column the round wrote: a replace move
// writes its marginal's attributes, a duplicate move every column.
// dirty is a per-column buffer owned by the caller.
func (g *GUM) applyRound(ds *dataset.Encoded, plans []gumPlan, codes []int32, dirty []bool) float64 {
	clear(dirty)
	var roundErr float64
	for ti, t := range g.targets {
		p := &plans[ti]
		roundErr += p.l1
		applyPlan(ds, t.m, p, codes)
		if p.dups > 0 {
			for a := range dirty {
				dirty[a] = true
			}
		} else if len(p.moves) > 0 {
			for _, a := range t.m.Attrs {
				dirty[a] = true
			}
		}
	}
	for ti, t := range g.targets {
		for _, a := range t.m.Attrs {
			if dirty[a] {
				plans[ti].clean = false
				break
			}
		}
	}
	return roundErr
}

// gumMove is one planned record rewrite: duplicate a full source row
// over r (rowOff ≥ 0, an offset into the plan's rowBuf, preserving
// the source's cross-marginal correlations), or overwrite r's
// marginal attributes with the codes of cell (rowOff < 0). The
// duplicate captures the source record's codes at planning time,
// before any of the round's applies, so applying a plan cannot be
// invalidated by an earlier marginal's moves in the same round.
type gumMove struct {
	r      int
	cell   int
	rowOff int
}

// gumPlan is one marginal's update pass: the L1 error measured on ds
// before the round's applies, and the record moves to apply. The move
// and row buffers are owned by the plan and recycled across rounds (a
// plan must stay readable until the round's sequential apply, so the
// buffers cannot live in the per-worker scratch).
//
// The plan also caches the gaps of its last full plan: the over list
// (cell-sorted, the order the quota draws consume the RNG in), the
// under count and l1. They stay valid while clean is set, i.e. while
// no applied move has written any of the marginal's attributes.
type gumPlan struct {
	l1     float64
	moves  []gumMove
	rowBuf []int32 // duplicate moves' captured rows, nAttrs each
	dups   int     // duplicate moves planned (they dirty every column)

	over  []cellGap // cells above target by more than gumDust
	under int       // cells below target by more than gumDust
	clean bool
}

// reset clears the plan's moves for reuse, keeping the buffers and
// the gap cache.
func (p *gumPlan) reset() {
	p.moves = p.moves[:0]
	p.rowBuf = p.rowBuf[:0]
	p.dups = 0
}

// planTarget runs one (round, marginal) task. A clean plan replays
// only its phase-3 quota draws from the cached over list: if they all
// round to zero the full plan would move nothing, and since the
// plan's RNG is discarded afterwards, the cached l1 with no moves is
// exactly its result. (A clean plan holds no moves: any move writes
// its own marginal's attributes, so applyRound drops the mark.)
// Otherwise the RNG is reseeded and the full plan runs, drawing the
// same quotas again.
func planTarget(ds *dataset.Encoded, t *target, alpha, dupProb float64, seed uint64, sc *gumScratch, plan *gumPlan) {
	sc.reseed(seed)
	if plan.clean && plan.quiet(sc.rng, alpha) {
		return
	}
	sc.reseed(seed)
	planUpdate(ds, t, alpha, dupProb, sc, plan)
}

// quiet reports whether the cached gaps plan no moves at alpha,
// consuming the same quota draws a full plan would.
func (p *gumPlan) quiet(rng *rand.Rand, alpha float64) bool {
	if len(p.over) == 0 || p.under == 0 || alpha <= 0 {
		return true
	}
	for _, o := range p.over {
		if stochasticRound(rng, o.Gap*alpha) > 0 {
			return false
		}
	}
	return true
}

// planUpdate computes one marginal's update pass against ds into
// plan: the planned moves plus the L1 error before the update, and
// the refreshed gap cache. It reads only ds and the (freshly
// reseeded) scratch RNG, so concurrent plans are safe and
// reproducible; all working memory comes from the scratch arena and
// the plan's own buffers, so the steady state allocates ~nothing. The
// dense (float64 or Cells32) and sparse counting paths are
// byte-identical by contract: every ordered traversal — and in
// particular every RNG draw — happens in ascending cell order (or the
// gap-sorted under order), never in map order.
func planUpdate(ds *dataset.Encoded, t *target, alpha, dupProb float64, sc *gumScratch, plan *gumPlan) {
	plan.reset()
	if !t.dense {
		planUpdateSparse(ds, t, alpha, dupProb, sc, plan)
		return
	}
	if sc.vals32 != nil {
		planUpdateDense(ds, t, alpha, dupProb, sc, plan, sc.vals32)
	} else {
		planUpdateDense(ds, t, alpha, dupProb, sc, plan, sc.vals)
	}
}

// sortUnderByGap orders deficits largest-gap first (ties by cell
// index) — the order they are served in and the order their RNG
// draws happen in.
func sortUnderByGap(under []cellGap) {
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

// shufflePool is Fisher–Yates with the same draw sequence as
// rng.Shuffle, minus its closure allocation.
func shufflePool(rng *rand.Rand, pool []int) {
	for i := len(pool) - 1; i > 0; i-- {
		j := int(rng.Uint64N(uint64(i + 1)))
		pool[i], pool[j] = pool[j], pool[i]
	}
}

// planUpdateDense is planUpdate's arena path, generic over the cell
// element type (float64, or float32 under Cells32). The phase loops
// live in the kernels package; this function owns the phase order
// and every RNG draw.
func planUpdateDense[F kernels.Float](ds *dataset.Encoded, t *target, alpha, dupProb float64, sc *gumScratch, plan *gumPlan, vals []F) {
	n := ds.NumRows()
	rng := sc.rng
	// Phase 1: current cell of every record plus cell counts, fused
	// into one row sweep (this runs once per marginal per round over
	// every record — the inner loop of the ≈90%-of-runtime synthesis
	// stage).
	countE, quotaE, repE := sc.phases()
	cells := len(t.counts)
	denseTally(sc, vals, ds, t.m, cells, countE)
	// Phase 2: L1 error and over/under split from the touched cells
	// and the precomputed target-bearing cells. Only cells with
	// nonzero current or target > gumDust can contribute; gaps below
	// gumDust cannot be satisfied by integer record moves and would
	// only soak up the move budget. Two byte-identical routes: when
	// the cell space is within gumSweepFactor of the interesting set,
	// one linear ascending sweep of the arena classifies everything
	// without sorting (the per-plan sort used to be ~a third of gum
	// wall); otherwise the touched set is sorted and merged. Either
	// way the traversal is ascending-cell, which fixes the FP
	// accumulation order of l1 and leaves over already cell-sorted —
	// the order the quota draws consume the RNG in.
	over, under := plan.over[:0], sc.under[:0]
	var l1 float64
	if cells <= gumSweepFactor*(len(sc.touched)+len(t.tcells)) {
		over, under, l1 = kernels.GapSweep(vals, sc.stamp, countE, t.counts, t.tcells, gumDust, over, under)
	} else {
		slices.Sort(sc.touched)
		over, under, l1 = kernels.GapMerge(sc.touched, vals, t.counts, t.tcells, gumDust, over, under)
	}
	sc.under = under
	plan.over, plan.under, plan.l1, plan.clean = over, len(under), l1, true
	if len(over) == 0 || len(under) == 0 || alpha <= 0 {
		return
	}

	// Phase 3: pool of movable records from over-represented cells,
	// capped at alpha·excess per cell. Quotas use probabilistic
	// rounding: with ceil(), every cell would keep contributing ≥1
	// record per round no matter how small alpha gets, and a large
	// marginal set would thrash forever instead of settling. The
	// summed quotas pre-size the pool and move buffers; when they are
	// all zero the plan moves nothing, and since its RNG dies with it
	// the remaining phases are skipped. Quotas are integral, so
	// storing them as F is exact in both cell modes.
	poolCap := 0
	cellOf := sc.cellOf[:n]
	stamp := sc.stamp
	for _, o := range over {
		q := stochasticRound(rng, o.Gap*alpha)
		vals[o.Cell] = F(q)
		stamp[o.Cell] = quotaE
		poolCap += int(q)
	}
	if poolCap == 0 {
		return
	}
	sortUnderByGap(under)
	pool := sc.pool[:0]
	if cap(pool) < poolCap {
		pool = make([]int, 0, poolCap)
	}
	pool = kernels.PoolScan(cellOf, vals, stamp, quotaE, pool, poolCap)
	sc.pool = pool
	shufflePool(rng, pool)

	// Phase 4: a representative record for each under cell enables
	// the duplicate operation. Only under cells are mapped, and the
	// row scan stops as soon as every findable cell has one: an under
	// cell still stamped countE here was counted this plan (its rows
	// exist); the rest have zero count — no row can ever match them,
	// so they must not keep the scan alive.
	rep := sc.rep
	findable := 0
	for _, u := range under {
		if stamp[u.Cell] == countE {
			findable++
		}
		stamp[u.Cell] = repE
		rep[u.Cell] = -1
	}
	kernels.RepScan(cellOf, rep, stamp, repE, findable)

	// Phase 5: the moves.
	nAttrs := ds.NumAttrs()
	moves := plan.moves[:0]
	if cap(moves) < poolCap {
		moves = make([]gumMove, 0, poolCap)
	}
	rowBuf := plan.rowBuf
	pi := 0
	for _, u := range under {
		need := int(stochasticRound(rng, u.Gap*alpha))
		for k := 0; k < need && pi < len(pool); k++ {
			r := pool[pi]
			pi++
			q, ok := 0, false
			if v := rep[u.Cell]; v >= 0 { // stamped repE above
				q, ok = int(v), true
			}
			if ok && q != r && rng.Float64() < dupProb {
				// Duplicate: capture the source row's current codes.
				off := len(rowBuf)
				for a := 0; a < nAttrs; a++ {
					rowBuf = append(rowBuf, ds.Cols[a][q])
				}
				moves = append(moves, gumMove{r: r, rowOff: off})
				plan.dups++
			} else {
				moves = append(moves, gumMove{r: r, cell: u.Cell, rowOff: -1})
				rep[u.Cell] = int32(r)
			}
		}
		if pi >= len(pool) {
			break
		}
	}
	plan.moves, plan.rowBuf = moves, rowBuf
}

// planUpdateSparse is planUpdate's map fallback for marginals whose
// projected cell space is too large to arena. Same phase order, same
// RNG draw sequence, byte-identical plans.
func planUpdateSparse(ds *dataset.Encoded, t *target, alpha, dupProb float64, sc *gumScratch, plan *gumPlan) {
	n := ds.NumRows()
	rng := sc.rng
	// Phase 1.
	sc.sparseTally(ds, t.m)
	// Phase 2: the sorted touched cells merged against the
	// target-bearing cells, counts read back from the map.
	slices.Sort(sc.touched)
	over, under := plan.over[:0], sc.under[:0]
	var l1 float64
	ki, kn := 0, len(t.tcells)
	for _, c := range sc.touched {
		for ki < kn && t.tcells[ki] < c {
			tc := t.tcells[ki]
			gap := t.counts[tc]
			l1 += gap
			under = append(under, cellGap{Cell: tc, Gap: gap})
			ki++
		}
		if ki < kn && t.tcells[ki] == c {
			ki++
		}
		d := sc.counts[c] - t.counts[c]
		l1 += math.Abs(d)
		if d > gumDust {
			over = append(over, cellGap{Cell: c, Gap: d})
		} else if d < -gumDust {
			under = append(under, cellGap{Cell: c, Gap: -d})
		}
	}
	for ; ki < kn; ki++ {
		tc := t.tcells[ki]
		gap := t.counts[tc]
		l1 += gap
		under = append(under, cellGap{Cell: tc, Gap: gap})
	}
	sc.under = under
	plan.over, plan.under, plan.l1, plan.clean = over, len(under), l1, true
	if len(over) == 0 || len(under) == 0 || alpha <= 0 {
		return
	}

	// Phase 3 (see planUpdateDense; quotas live in a map here).
	poolCap := 0
	cellOf := sc.cellOf[:n]
	clear(sc.quota)
	for _, o := range over {
		q := stochasticRound(rng, o.Gap*alpha)
		sc.quota[o.Cell] = q
		poolCap += int(q)
	}
	if poolCap == 0 {
		return
	}
	sortUnderByGap(under)
	pool := sc.pool[:0]
	if cap(pool) < poolCap {
		pool = make([]int, 0, poolCap)
	}
	for r, want := 0, poolCap; r < n && want > 0; r++ {
		if q, ok := sc.quota[cellOf[r]]; ok && q >= 1 {
			pool = append(pool, r)
			sc.quota[cellOf[r]] = q - 1
			want--
		}
	}
	sc.pool = pool
	shufflePool(rng, pool)

	// Phase 4 (see planUpdateDense: only under cells counted this
	// plan can find a representative, so only they bound the scan).
	clear(sc.srep)
	needRep := 0
	for _, u := range under {
		if _, counted := sc.counts[u.Cell]; counted {
			needRep++
		}
		sc.srep[u.Cell] = -1
	}
	for r := 0; r < n && needRep > 0; r++ {
		if v, ok := sc.srep[cellOf[r]]; ok && v < 0 {
			sc.srep[cellOf[r]] = r
			needRep--
		}
	}

	// Phase 5.
	nAttrs := ds.NumAttrs()
	moves := plan.moves[:0]
	if cap(moves) < poolCap {
		moves = make([]gumMove, 0, poolCap)
	}
	rowBuf := plan.rowBuf
	pi := 0
	for _, u := range under {
		need := int(stochasticRound(rng, u.Gap*alpha))
		for k := 0; k < need && pi < len(pool); k++ {
			r := pool[pi]
			pi++
			q, ok := 0, false
			if v := sc.srep[u.Cell]; v >= 0 {
				q, ok = v, true
			}
			if ok && q != r && rng.Float64() < dupProb {
				// Duplicate: capture the source row's current codes.
				off := len(rowBuf)
				for a := 0; a < nAttrs; a++ {
					rowBuf = append(rowBuf, ds.Cols[a][q])
				}
				moves = append(moves, gumMove{r: r, rowOff: off})
				plan.dups++
			} else {
				moves = append(moves, gumMove{r: r, cell: u.Cell, rowOff: -1})
				sc.srep[u.Cell] = r
			}
		}
		if pi >= len(pool) {
			break
		}
	}
	plan.moves, plan.rowBuf = moves, rowBuf
}

// applyPlan executes one marginal's planned moves against the live
// dataset. Plans are applied in marginal order, so the result is
// independent of how the planning was scheduled. codes is a
// len ≥ len(m.Attrs) decode buffer owned by the caller.
func applyPlan(ds *dataset.Encoded, m *marginal.Marginal, p *gumPlan, codes []int32) {
	nAttrs := ds.NumAttrs()
	for _, mv := range p.moves {
		if mv.rowOff >= 0 {
			// Duplicate: copy the planned full record, preserving the
			// correlations of attributes outside this marginal.
			row := p.rowBuf[mv.rowOff : mv.rowOff+nAttrs]
			for a, v := range row {
				ds.Cols[a][mv.r] = v
			}
		} else {
			// Replace: overwrite only this marginal's attributes.
			m.CellInto(mv.cell, codes)
			for i, a := range m.Attrs {
				ds.Cols[a][mv.r] = codes[i]
			}
		}
	}
}

// stochasticRound rounds x down, plus one with probability frac(x),
// so quotas are unbiased and vanish as the update rate decays.
func stochasticRound(rng *rand.Rand, x float64) float64 {
	fl := math.Floor(x)
	if rng.Float64() < x-fl {
		fl++
	}
	return fl
}

// InitIndependent builds the plain-GUM starting dataset: every
// attribute sampled independently from its published 1-way marginal.
func InitIndependent(names []string, domains []int, oneWay []*marginal.Marginal, n int, seed uint64) (*dataset.Encoded, error) {
	if len(oneWay) != len(domains) {
		return nil, fmt.Errorf("core: %d one-way marginals for %d attributes", len(oneWay), len(domains))
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xbb67ae8584caa73b))
	ds := dataset.NewEncoded(names, domains, n)
	for a := range domains {
		samp := newCatSampler(oneWay[a].Counts)
		col := ds.Cols[a]
		for r := 0; r < n; r++ {
			col[r] = int32(samp.Sample(rng))
		}
	}
	return ds, nil
}

// InitGUMMI builds NetDPSyn's marginal-initialized starting dataset
// (§3.4): the key attribute (the label) is sampled from its 1-way
// marginal, then every published marginal containing the key — taken
// in decreasing |Pearson correlation| order — assigns its remaining
// attributes conditionally on the key, and any attribute left
// unassigned falls back to its independent 1-way marginal. nInit
// caps how many key marginals are used (≤ 0 means all).
func InitGUMMI(names []string, domains []int, oneWay, published []*marginal.Marginal, keyAttr, n, nInit int, seed uint64) (*dataset.Encoded, error) {
	if keyAttr < 0 || keyAttr >= len(domains) {
		return nil, fmt.Errorf("core: key attribute %d out of range", keyAttr)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x3c6ef372fe94f82b))
	ds := dataset.NewEncoded(names, domains, n)

	// Key marginals ordered by |Pearson| (computed on the noisy
	// counts; no extra budget).
	type keyed struct {
		m    *marginal.Marginal
		corr float64
	}
	var key []keyed
	for _, m := range published {
		hasKey := false
		for _, a := range m.Attrs {
			if a == keyAttr {
				hasKey = true
				break
			}
		}
		if !hasKey || len(m.Attrs) < 2 {
			continue
		}
		corr := 0.0
		if len(m.Attrs) == 2 {
			c, err := m.PearsonCorr()
			if err == nil {
				corr = math.Abs(c)
			}
		} else {
			corr = 1 // multi-way key marginals are used first
		}
		key = append(key, keyed{m, corr})
	}
	sort.SliceStable(key, func(a, b int) bool { return key[a].corr > key[b].corr })
	if nInit > 0 && nInit < len(key) {
		key = key[:nInit]
	}

	// Sample the key attribute.
	keySamp := newCatSampler(oneWay[keyAttr].Counts)
	keyCol := ds.Cols[keyAttr]
	for r := 0; r < n; r++ {
		keyCol[r] = int32(keySamp.Sample(rng))
	}
	assigned := make([]bool, len(domains))
	assigned[keyAttr] = true

	// Conditional assignment from each key marginal.
	for _, km := range key {
		m := km.m
		newAttrs := make([]int, 0, len(m.Attrs))
		for _, a := range m.Attrs {
			if !assigned[a] {
				newAttrs = append(newAttrs, a)
			}
		}
		if len(newAttrs) == 0 {
			continue
		}
		cond, err := newConditionalSampler(m, keyAttr)
		if err != nil {
			return nil, err
		}
		// Decode each sampled cell into a reused buffer and assign only
		// the not-yet-covered attribute positions (precomputed, so the
		// row loop does no membership scans and allocates nothing).
		codes := make([]int32, len(m.Attrs))
		newPos := make([]int, 0, len(newAttrs))
		for i, a := range m.Attrs {
			if !assigned[a] {
				newPos = append(newPos, i)
			}
		}
		for r := 0; r < n; r++ {
			cell := cond.Sample(rng, keyCol[r])
			m.CellInto(cell, codes)
			for _, i := range newPos {
				ds.Cols[m.Attrs[i]][r] = codes[i]
			}
		}
		for _, a := range newAttrs {
			assigned[a] = true
		}
	}

	// Independent fallback for uncovered attributes.
	for a := range domains {
		if assigned[a] {
			continue
		}
		samp := newCatSampler(oneWay[a].Counts)
		col := ds.Cols[a]
		for r := 0; r < n; r++ {
			col[r] = int32(samp.Sample(rng))
		}
	}
	return ds, nil
}

// catSampler draws from a non-negative weight vector via CDF binary
// search.
type catSampler struct {
	cdf []float64
}

func newCatSampler(weights []float64) *catSampler {
	cdf := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cdf[i] = total
	}
	if total <= 0 {
		for i := range cdf {
			cdf[i] = float64(i+1) / float64(len(cdf))
		}
		return &catSampler{cdf: cdf}
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &catSampler{cdf: cdf}
}

func (s *catSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(s.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// conditionalSampler draws a full marginal cell conditioned on the
// key attribute's value.
type conditionalSampler struct {
	perKey []*catSampler // indexed by key code; samples a cell offset
	cells  [][]int       // cell indices behind each sampler
}

func newConditionalSampler(m *marginal.Marginal, keyAttr int) (*conditionalSampler, error) {
	keyPos := -1
	for i, a := range m.Attrs {
		if a == keyAttr {
			keyPos = i
			break
		}
	}
	if keyPos < 0 {
		return nil, fmt.Errorf("core: marginal %v lacks key attribute %d", m.Attrs, keyAttr)
	}
	dom := m.Domains[keyPos]
	cells := make([][]int, dom)
	weights := make([][]float64, dom)
	for idx, c := range m.Counts {
		codes := m.Cell(idx)
		k := int(codes[keyPos])
		cells[k] = append(cells[k], idx)
		if c < 0 {
			c = 0
		}
		weights[k] = append(weights[k], c)
	}
	cs := &conditionalSampler{perKey: make([]*catSampler, dom), cells: cells}
	for k := 0; k < dom; k++ {
		cs.perKey[k] = newCatSampler(weights[k])
	}
	return cs, nil
}

// Sample returns a flattened cell index of the marginal whose key
// code equals k.
func (c *conditionalSampler) Sample(rng *rand.Rand, k int32) int {
	ki := int(k)
	if ki < 0 || ki >= len(c.perKey) || len(c.cells[ki]) == 0 {
		ki = 0
	}
	return c.cells[ki][c.perKey[ki].Sample(rng)]
}
