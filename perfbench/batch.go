package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
)

// The batch workload: the library/CLI path, one caller, closed loop.
// Every release takes a TON flow trace as CSV bytes through LoadCSV →
// Synthesize → WriteCSV at the paper's defaults.
const (
	batchRows    = 20000 // rows per input trace
	batchPairs   = 6     // distinct (input, seed) pairs the loop cycles through
	batchEpsilon = 2.0
	batchRounds  = 200 // GUM update rounds (the paper's default)
	batchWorkers = 2
	batchSetups  = 15 // cold set-ups per run; setup_s is their median
	batchGated   = 16 // releases the gated metrics cover (see gate)
)

func runBatch(cfg config) (*report, error) {
	rep := &report{}
	rep.addLine("batch: closed loop, 1 caller; LoadCSV -> Synthesize -> WriteCSV on %d-row TON traces; %d (input, seed) pairs; eps=%g, %d GUM rounds, Workers=%d",
		batchRows, batchPairs, batchEpsilon, batchRounds, batchWorkers)

	type pair struct {
		csv    []byte
		schema *netdpsyn.Schema
		seed   uint64
	}
	pairs := make([]pair, batchPairs)
	for i := range pairs {
		t, err := datagen.GenerateTON(datagen.Config{Rows: batchRows, Seed: subSeed(cfg.seed, 1, uint64(i))})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			return nil, err
		}
		pairs[i] = pair{csv: buf.Bytes(), schema: t.Schema(), seed: subSeed(cfg.seed, 2, uint64(i))}
	}

	// Set-up, as a CLI user pays it: decode each input and construct
	// its synthesizer. One set-up is a few tens of milliseconds, so
	// the run repeats it and reports the median.
	quiesce()
	syns := make([]*netdpsyn.Synthesizer, batchPairs)
	var setups setupTimes
	for r := 0; r < batchSetups; r++ {
		t0, c0 := time.Now(), processCPU()
		for i, p := range pairs {
			if _, err := netdpsyn.LoadCSV(bytes.NewReader(p.csv), p.schema); err != nil {
				return nil, fmt.Errorf("set-up decode: %w", err)
			}
			s, err := netdpsyn.New(netdpsyn.Config{
				Epsilon: batchEpsilon, UpdateIterations: batchRounds, Workers: batchWorkers, Seed: p.seed,
			})
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			syns[i] = s
		}
		setups.add(t0, c0)
	}

	type release struct {
		total, decode, encode float64
		stages                map[string]stageTime
		traced                bool
	}
	var (
		rels   []release
		raws   = make([]*netdpsyn.Table, batchPairs) // each pair's input ...
		firsts = make([]*netdpsyn.Table, batchPairs) // ... and its first release
		hashes = make([][sha256.Size]byte, batchPairs)
		out    bytes.Buffer
	)
	g := &gate{n: batchGated}
	quiesce()
	start := sampleHost()
	// The loop runs at least one release per pair, so fidelity and the
	// repeat check always have their inputs.
	for i := 0; i < batchPairs || g.running(start.wall, cfg.seconds); i++ {
		pi := i % batchPairs
		p := pairs[pi]
		op := fmt.Sprintf("release %d", i)
		rep.attempted++
		t0 := time.Now()
		tab, err := netdpsyn.LoadCSV(bytes.NewReader(p.csv), p.schema)
		if err != nil {
			rep.fail(op, "decode: %v", err)
			continue
		}
		t1 := time.Now()
		res, err := syns[pi].Synthesize(tab)
		if err != nil {
			rep.fail(op, "synthesize: %v", err)
			continue
		}
		t2 := time.Now()
		out.Reset()
		if err := res.Table.WriteCSV(&out); err != nil {
			rep.fail(op, "encode: %v", err)
			continue
		}
		t3 := time.Now()
		g.release()
		rel := release{
			total:  t3.Sub(t0).Seconds(),
			decode: t1.Sub(t0).Seconds(),
			encode: t3.Sub(t2).Seconds(),
			traced: cfg.trace && i%2 == 1,
		}
		if rel.traced {
			rel.stages = libStages(res.Stages)
		}
		rels = append(rels, rel)

		// Checks: the release parses back with the input schema, holds
		// the records the synthesizer reported, and repeats of a pair
		// are byte-identical.
		back, err := netdpsyn.LoadCSV(bytes.NewReader(out.Bytes()), p.schema)
		switch {
		case err != nil:
			rep.fail(op, "parse back: %v", err)
			continue
		case back.NumRows() != res.Records:
			rep.fail(op, "%d rows, synthesizer reported %d", back.NumRows(), res.Records)
			continue
		}
		sum := sha256.Sum256(out.Bytes())
		if firsts[pi] == nil {
			raws[pi], firsts[pi], hashes[pi] = tab, back, sum
		} else if sum != hashes[pi] {
			rep.fail(op, "pair %d's release differs from its first release", pi)
		}
	}
	end := sampleHost()
	g.close(rep, end)
	rep.addHostLines("whole run", start.to(end))

	fid, err := meanFidelity(raws, firsts)
	if err != nil {
		return nil, err
	}
	var totals, tracedTotals, untracedTotals []float64
	var decodes, encodes, unattributed []float64
	var stages []map[string]stageTime
	for i, r := range rels {
		totals = append(totals, r.total)
		if !cfg.trace || i >= g.n { // the breakdown covers the gated releases
			continue
		}
		if !r.traced {
			untracedTotals = append(untracedTotals, r.total)
			continue
		}
		tracedTotals = append(tracedTotals, r.total)
		decodes = append(decodes, r.decode)
		encodes = append(encodes, r.encode)
		stages = append(stages, r.stages)
		unattributed = append(unattributed, r.total-r.decode-r.encode-stageWallSum(r.stages))
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("no release completed")
	}
	rep.addEndToEnd(setups, totals, start, g, fid, batchPairs)
	if cfg.trace {
		rep.perLayer = append(rep.perLayer,
			metric{name: "dataset.decode_s", value: median(decodes), unit: "s", n: len(decodes)},
			metric{name: "dataset.encode_s", value: median(encodes), unit: "s", n: len(encodes)},
		)
		rep.addLayers(stages, unattributed, start, g, tracedTotals, untracedTotals)
	}
	return rep, nil
}

// libStages converts the library's stage timings to seconds.
func libStages(in map[string]netdpsyn.StageTiming) map[string]stageTime {
	out := make(map[string]stageTime, len(in))
	for name, st := range in {
		out[name] = stageTime{wall: st.Wall.Seconds(), busy: st.Busy.Seconds()}
	}
	return out
}

// meanFidelity averages fidelityErr over (raw, release) pairs.
func meanFidelity(raws, syns []*netdpsyn.Table) (float64, error) {
	var sum float64
	for i := range raws {
		if raws[i] == nil || syns[i] == nil {
			return 0, fmt.Errorf("fidelity: release %d of the fixed set did not complete", i)
		}
		f, err := fidelityErr(raws[i], syns[i])
		if err != nil {
			return 0, err
		}
		sum += f
	}
	return sum / float64(len(raws)), nil
}
