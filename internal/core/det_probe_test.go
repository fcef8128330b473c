package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// TestCrossProcessDeterminism verifies that the full pipeline output
// is identical across separate test processes (Go randomizes map
// iteration per process, so any hidden map-order dependence shows up
// here). The expected hash is pinned for the fixed input and seed.
func TestCrossProcessDeterminism(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 1772, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epsilon = 16
	cfg.GUM.Iterations = 30
	cfg.Seed = 42
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Synthesize(raw)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for c := 0; c < res.Table.NumCols(); c++ {
		for _, v := range res.Table.Column(c) {
			fmt.Fprintf(h, "%d,", v)
		}
	}
	fmt.Printf("DETHASH rows=%d hash=%x\n", res.Table.NumRows(), h.Sum64())
}

// TestCrossProcessDeterminismCells32 runs the same pinned-input
// pipeline with GUM's float32 dense-cell arena and prints its own
// fingerprint line. The arena only ever holds integral counts below
// 2²⁴, where float32 is exact, so the hash must equal the base
// DETHASH — that equality is asserted here, not just eyeballed.
func TestCrossProcessDeterminismCells32(t *testing.T) {
	raw, err := datagen.Generate(datagen.TON, datagen.Config{Rows: 1772, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	hash := func(cells32 bool) (int, uint64) {
		cfg := DefaultConfig()
		cfg.Epsilon = 16
		cfg.GUM.Iterations = 30
		cfg.Seed = 42
		cfg.GUM.Cells32 = cells32
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Synthesize(raw)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for c := 0; c < res.Table.NumCols(); c++ {
			for _, v := range res.Table.Column(c) {
				fmt.Fprintf(h, "%d,", v)
			}
		}
		return res.Table.NumRows(), h.Sum64()
	}
	rows32, h32 := hash(true)
	rows64, h64 := hash(false)
	fmt.Printf("DETHASH-CELLS32 rows=%d hash=%x\n", rows32, h32)
	if rows32 != rows64 || h32 != h64 {
		t.Fatalf("Cells32 fingerprint rows=%d hash=%x diverges from float64 rows=%d hash=%x",
			rows32, h32, rows64, h64)
	}
}

// TestCrossProcessDeterminismConverged runs the pinned-input pipeline
// for the full 200 GUM rounds, well past the point where the update
// rate has decayed and rounds stop moving records, and fingerprints
// the output together with the bits of every per-round GUM error.
// Worker counts 1 and 2 must agree with each other and with the
// pinned hash, so any change to the converged regime — a skipped plan
// that should have moved a record, or an l1 summed in another order —
// shows here even when the 30-round DETHASH probe is unchanged.
func TestCrossProcessDeterminismConverged(t *testing.T) {
	pinned := map[datagen.Name]string{
		datagen.TON: "rows=5012 rounds=200 hash=2cec1a1ec1cc5141",
		datagen.DC:  "rows=4992 rounds=200 hash=9072c8bf77865a2e",
	}
	for _, d := range []datagen.Name{datagen.TON, datagen.DC} {
		raw, err := datagen.Generate(d, datagen.Config{Rows: 5000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for _, workers := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Seed = 42
			cfg.Workers = workers
			p, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Synthesize(raw)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for c := 0; c < res.Table.NumCols(); c++ {
				for _, v := range res.Table.Column(c) {
					fmt.Fprintf(h, "%d,", v)
				}
			}
			for _, e := range res.Report.GUMErrors {
				fmt.Fprintf(h, "%x;", math.Float64bits(e))
			}
			got := fmt.Sprintf("rows=%d rounds=%d hash=%x", res.Table.NumRows(), len(res.Report.GUMErrors), h.Sum64())
			if workers == 1 {
				first = got
				fmt.Printf("DETHASH-CONVERGED-%s %s\n", d, got)
			} else if got != first {
				t.Errorf("%s: Workers=%d fingerprint %s, Workers=1 gave %s", d, workers, got, first)
			}
		}
		if first != pinned[d] {
			t.Errorf("%s: converged fingerprint %s, pinned %s", d, first, pinned[d])
		}
	}
}
