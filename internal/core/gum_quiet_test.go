package core

import (
	"math"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// gumQuietAlpha is an update rate so far decayed that every quota
// rounds to zero: the regime GUM reaches after ~80 rounds.
const gumQuietAlpha = 1e-12

// gumQuietModes are the counting configurations the gap cache must
// serve identically: the dense float64 and float32 arenas and the
// sparse map fallback.
var gumQuietModes = []struct {
	name    string
	mode    int
	cells32 bool
}{
	{"dense", gumDenseForced, false},
	{"sparse", gumSparseForced, false},
	{"cells32", gumDenseForced, true},
}

// freshPlan runs a full planUpdate on a new scratch and plan.
func freshPlan(ds *dataset.Encoded, g *GUM, ti int, alpha float64, seed uint64) *gumPlan {
	sc := newGumScratch(ds.NumRows(), g.denseCells, g.cfg.Cells32)
	sc.reseed(seed)
	var p gumPlan
	planUpdate(ds, g.targets[ti], alpha, 0.5, sc, &p)
	return &p
}

// TestGUMQuietPlanMatchesFresh checks the clean-marginal gap cache
// against a full plan in every counting mode: at a decayed alpha a
// clean target's cached path gives the fresh plan's l1 bits and no
// moves, without re-tallying; at a live alpha it falls back to a full
// plan with the same moves the fresh plan makes.
func TestGUMQuietPlanMatchesFresh(t *testing.T) {
	const rows = 600
	for _, md := range gumQuietModes {
		t.Run(md.name, func(t *testing.T) {
			ds, ms := gumEquivSetup(rows)
			g := NewGUM(ms, rows, GUMConfig{denseMode: md.mode, Cells32: md.cells32})
			sc := newGumScratch(rows, g.denseCells, md.cells32)
			plans := make([]gumPlan, len(g.targets))
			for ti, tgt := range g.targets {
				planTarget(ds, tgt, gumQuietAlpha, 0.5, taskSeed(1, "q", ti), sc, &plans[ti])
				if !plans[ti].clean {
					t.Fatalf("target %d: full plan left the cache unclean", ti)
				}
			}
			for round := 0; round < 10; round++ {
				for ti, tgt := range g.targets {
					seed := taskSeed(5, "q", round*len(g.targets)+ti)
					want := freshPlan(ds, g, ti, gumQuietAlpha, seed)
					if len(want.moves) != 0 {
						t.Fatalf("target %d: fresh plan at alpha %g moves %d records", ti, gumQuietAlpha, len(want.moves))
					}
					p := &plans[ti]
					planTarget(ds, tgt, gumQuietAlpha, 0.5, seed, sc, p)
					if math.Float64bits(p.l1) != math.Float64bits(want.l1) || len(p.moves) != 0 || p.dups != 0 {
						t.Fatalf("target %d round %d: cached l1 %v with %d moves, fresh l1 %v with none",
							ti, round, p.l1, len(p.moves), want.l1)
					}
				}
			}

			// The cached path must not re-tally: rewrite a column behind
			// the cache's back and the clean plan still reports its
			// cached l1.
			ti := len(g.targets) - 1
			col := ds.Cols[g.targets[ti].m.Attrs[0]]
			saved := append([]int32(nil), col...)
			for r := range col {
				col[r] = 0
			}
			cached := plans[ti].l1
			planTarget(ds, g.targets[ti], gumQuietAlpha, 0.5, taskSeed(6, "q", 0), sc, &plans[ti])
			if plans[ti].l1 != cached {
				t.Fatalf("clean target re-tallied: l1 %v, cached %v", plans[ti].l1, cached)
			}
			copy(col, saved)

			// A live alpha draws non-zero quotas from the cache and must
			// fall back to exactly the full plan.
			for ti, tgt := range g.targets {
				seed := taskSeed(8, "q", ti)
				want := freshPlan(ds, g, ti, 0.7, seed)
				if len(want.moves) == 0 {
					t.Fatalf("target %d: fresh plan at alpha 0.7 moves nothing", ti)
				}
				planTarget(ds, tgt, 0.7, 0.5, seed, sc, &plans[ti])
				samePlan(t, md.name+" fallback", &plans[ti], want)
			}
		})
	}
}

// TestGUMQuietInvalidation checks which gap caches an applied round
// drops: a replace move dirties the marginals that read any of its
// marginal's attributes (its own included) and no other, and a
// duplicate move dirties every marginal. A dropped cache is
// re-tallied on the next plan and agrees with a fresh plan on the
// modified dataset.
func TestGUMQuietInvalidation(t *testing.T) {
	const rows = 600
	for _, md := range gumQuietModes {
		t.Run(md.name, func(t *testing.T) {
			// Targets: {0}, {1,2}, {0,2,3}.
			ds, ms := gumEquivSetup(rows)
			g := NewGUM(ms, rows, GUMConfig{denseMode: md.mode, Cells32: md.cells32})
			sc := newGumScratch(rows, g.denseCells, md.cells32)
			plans := make([]gumPlan, len(g.targets))
			codes := make([]int32, 4)
			dirty := make([]bool, len(ds.Cols))
			replan := func() {
				for ti, tgt := range g.targets {
					planTarget(ds, tgt, gumQuietAlpha, 0.5, taskSeed(2, "q", ti), sc, &plans[ti])
				}
			}
			checkClean := func(tag string, want ...bool) {
				t.Helper()
				for ti := range plans {
					if plans[ti].clean != want[ti] {
						t.Fatalf("%s: target %d clean = %v, want %v", tag, ti, plans[ti].clean, want[ti])
					}
				}
			}
			checkFresh := func(tag string) {
				t.Helper()
				for ti := range g.targets {
					want := freshPlan(ds, g, ti, gumQuietAlpha, taskSeed(2, "q", ti))
					if math.Float64bits(plans[ti].l1) != math.Float64bits(want.l1) {
						t.Fatalf("%s: target %d l1 %v, fresh %v", tag, ti, plans[ti].l1, want.l1)
					}
				}
			}

			replan()
			g.applyRound(ds, plans, codes, dirty)
			checkClean("no moves", true, true, true)

			// Replace moves on {1,2}: pile 100 rows into cell (0, 0), so
			// {0,2,3}'s column-2 counts really move.
			before := plans[2].l1
			for r := 0; r < 100; r++ {
				plans[1].moves = append(plans[1].moves, gumMove{r: r, cell: 0, rowOff: -1})
			}
			g.applyRound(ds, plans, codes, dirty)
			checkClean("replace on {1,2}", true, false, false)
			replan()
			checkFresh("after replace")
			if plans[2].l1 == before {
				t.Fatalf("replace move left {0,2,3} l1 unchanged at %v; the check would be vacuous", before)
			}
			checkClean("replanned", true, true, true)

			// Duplicate move on {0}: copies a whole row, so every
			// marginal's cache goes, even {1,2}, which shares no
			// attribute with {0}.
			p := &plans[0]
			for a := range ds.Cols {
				p.rowBuf = append(p.rowBuf, ds.Cols[a][1])
			}
			p.moves = append(p.moves[:0], gumMove{r: 2, rowOff: 0})
			p.dups = 1
			g.applyRound(ds, plans, codes, dirty)
			checkClean("duplicate on {0}", false, false, false)
			replan()
			checkFresh("after duplicate")
		})
	}
}
