package core

import (
	"math/rand/v2"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/marginal"
)

// benchGUMSetup builds a 3-way marginal over a random dataset sized
// like one synthesis window, the shape both planning benchmarks
// share. The target counts come from a differently-seeded dataset so
// every plan has real over/under gaps — the pool scan, shuffle,
// representative pass and move loop all run, not just the tally.
func benchGUMSetup(rows int) (*dataset.Encoded, *GUM) {
	domains := []int{64, 32, 16}
	names := []string{"a", "b", "c"}
	mk := func(s1, s2 uint64) *dataset.Encoded {
		ds := dataset.NewEncoded(names, domains, rows)
		rng := rand.New(rand.NewPCG(s1, s2))
		for a, dom := range domains {
			col := ds.Cols[a]
			for r := range col {
				col[r] = int32(rng.IntN(dom))
			}
		}
		return ds
	}
	ds := mk(3, 5)
	m := marginal.Compute(mk(7, 9), []int{0, 1, 2})
	g := NewGUM([]*marginal.Marginal{m}, rows, DefaultGUMConfig())
	return ds, g
}

// BenchmarkGUMPlanUpdate measures one marginal's planning pass — the
// cell-index tally it opens with is the inner loop of the synthesis
// stage (≈90% of end-to-end runtime per §3.1), which is what the
// dense scratch arena targets.
func BenchmarkGUMPlanUpdate(b *testing.B) {
	const rows = 50_000
	ds, g := benchGUMSetup(rows)
	sc := newGumScratch(rows, g.denseCells, false)
	var plan gumPlan
	b.SetBytes(int64(ds.NumAttrs()) * rows * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.reseed(taskSeed(uint64(i), "gum-update", i))
		planUpdate(ds, g.targets[0], 0.5, 0.5, sc, &plan)
	}
}

// BenchmarkGUMSteadyState locks in the zero-alloc contract: once the
// scratch arena and plan buffers are warm, a planning pass must not
// allocate. It fails the benchmark if AllocsPerRun sees more than one
// residual allocation per plan (slack for one-off buffer growth when
// a round's pool outgrows every previous round's), and if the plan
// moves nothing — a quiet plan would skip the pool, representative
// and move phases the contract is about.
func BenchmarkGUMSteadyState(b *testing.B) {
	const rows = 50_000
	ds, g := benchGUMSetup(rows)
	sc := newGumScratch(rows, g.denseCells, false)
	var plan gumPlan
	i := 0
	run := func() {
		sc.reseed(taskSeed(uint64(i), "gum-update", i))
		planUpdate(ds, g.targets[0], 0.5, 0.5, sc, &plan)
		i++
	}
	// Warm every buffer to its steady-state capacity.
	for k := 0; k < 20; k++ {
		run()
	}
	allocs := testing.AllocsPerRun(100, run)
	b.ReportMetric(allocs, "allocs/plan")
	if len(plan.moves) == 0 {
		b.Fatal("steady-state plan moves no record; the pool and representative phases went unmeasured")
	}
	if allocs > 1 {
		b.Fatalf("steady-state planUpdate allocates %.1f allocs/plan, want ~0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		run()
	}
}

// BenchmarkGUMSteadyStateQuiet extends the zero-alloc contract to the
// converged regime, where alpha has decayed and plans move nothing.
// One op is a whole round over a clean target — the cached quota
// replay plus the apply pass — followed by a forced re-tally of the
// same target at the same alpha, which must refill the plan's over
// cache in its existing capacity. Both must report 0 allocs.
func BenchmarkGUMSteadyStateQuiet(b *testing.B) {
	const rows = 50_000
	ds, g := benchGUMSetup(rows)
	sc := newGumScratch(rows, g.denseCells, false)
	plans := make([]gumPlan, len(g.targets))
	codes := make([]int32, ds.NumAttrs())
	dirty := make([]bool, ds.NumAttrs())
	const alpha = 1e-12
	i := 0
	round := func() {
		for ti, t := range g.targets {
			planTarget(ds, t, alpha, 0.5, taskSeed(uint64(i), "gum-update", ti), sc, &plans[ti])
		}
		g.applyRound(ds, plans, codes, dirty)
		i++
	}
	retally := func() {
		plans[0].clean = false
		round()
	}
	for k := 0; k < 20; k++ {
		retally()
	}
	if !plans[0].clean || len(plans[0].moves) != 0 {
		b.Fatalf("alpha %g round left the target unclean or moving %d records", alpha, len(plans[0].moves))
	}
	quietAllocs := testing.AllocsPerRun(100, round)
	retallyAllocs := testing.AllocsPerRun(100, retally)
	b.ReportMetric(quietAllocs, "allocs/quiet-round")
	b.ReportMetric(retallyAllocs, "allocs/retally-round")
	if quietAllocs != 0 || retallyAllocs != 0 {
		b.Fatalf("converged GUM round allocates: %.1f allocs/quiet round, %.1f allocs/re-tally round, want 0",
			quietAllocs, retallyAllocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		round()
	}
}
