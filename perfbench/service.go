package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// The service workload: netdpsynd over loopback HTTP with a durable
// state dir. Each client loops register → synthesize → poll → fetch,
// and every fourth release of a client is also evaluated.
const (
	svcClients   = 2
	svcRunners   = 1 // job runners (MaxConcurrentJobs)
	svcWorkers   = 2 // engine-worker budget shared by running jobs
	svcRows      = 2000
	svcInputs    = 4 // distinct (input, seed) pairs per client
	svcEpsilon   = 2.0
	svcRounds    = 5 // GUM rounds: few, so serving costs dominate
	svcEvalEvery = 4
	svcEvalEps   = 1.0
	// The prepared state dir a set-up recovers: every client input
	// registered svcPrepCopies times, each with one finished job.
	svcPrepCopies = 4
	svcSetups     = 7   // cold restarts per run; setup_s is their median
	svcGated      = 450 // releases the gated metrics cover (see gate)
)

// svcRegister is the registration query every service upload uses.
const svcRegister = "/datasets?schema=flow&label=label"

type svcInput struct {
	csv  []byte
	raw  *netdpsyn.Table // the upload decoded with the registration schema
	seed uint64          // synthesis seed
}

// svcInputs generates each client's flow traces: UGR16 and CIDDS
// alternate (CIDDS carries an extra flags column the flow schema
// ignores).
func svcMakeInputs(seed uint64) ([][]svcInput, error) {
	schema := netdpsyn.FlowSchema("label")
	out := make([][]svcInput, svcClients)
	for c := range out {
		out[c] = make([]svcInput, svcInputs)
		for k := range out[c] {
			name := datagen.UGR16
			if k%2 == 1 {
				name = datagen.CIDDS
			}
			t, err := datagen.Generate(name, datagen.Config{Rows: svcRows, Seed: subSeed(seed, 10, uint64(c), uint64(k))})
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := t.WriteCSV(&buf); err != nil {
				return nil, err
			}
			raw, err := netdpsyn.LoadCSV(bytes.NewReader(buf.Bytes()), schema)
			if err != nil {
				return nil, err
			}
			out[c][k] = svcInput{csv: buf.Bytes(), raw: raw, seed: subSeed(seed, 11, uint64(c), uint64(k))}
		}
	}
	return out, nil
}

func svcSynthRequest(seed uint64) serve.SynthesisRequest {
	return serve.SynthesisRequest{Epsilon: svcEpsilon, Iterations: svcRounds, Seed: seed}
}

// svcPrepare builds the state dir every set-up recovers: the clients'
// inputs registered svcPrepCopies times over, each with a finished
// synthesis job whose result is persisted, then a clean shutdown.
func svcPrepare(dir string, inputs [][]svcInput) error {
	d, err := startDaemon(daemonOptions(dir, svcWorkers, svcRunners))
	if err != nil {
		return err
	}
	var jobs []string
	for copyN := 0; copyN < svcPrepCopies; copyN++ {
		for _, client := range inputs {
			for _, in := range client {
				var info serve.Info
				if err := d.call(http.MethodPost, svcRegister, in.csv, http.StatusCreated, &info); err != nil {
					return err
				}
				var ack serve.SynthesisResponse
				if err := d.postJSON("/datasets/"+info.ID+"/synthesize", svcSynthRequest(in.seed), http.StatusAccepted, &ack); err != nil {
					return err
				}
				jobs = append(jobs, ack.JobID)
			}
		}
	}
	for _, id := range jobs {
		if _, _, err := d.pollJob(id, jobDone, nil); err != nil {
			return err
		}
	}
	return d.stop()
}

// svcRelease is one client release's timings (seconds). Server-side
// parts are filled on traced releases only.
type svcRelease struct {
	done                    time.Time
	total                   float64
	register, submit, fetch float64
	queueWait, run          float64
	polls                   int
	stages                  map[string]stageTime
	traced                  bool
}

// svcLedger is what a dataset's budget must read after the run, and
// the release operation that registered it.
type svcLedger struct {
	op      string
	dataset string
	rho     float64
}

// svcFailure is a failed operation of a client and why it failed.
type svcFailure struct{ op, msg string }

type svcClient struct {
	releases []svcRelease
	evals    []float64 // eval_s samples
	evalRuns []float64 // eval job run times (traced evaluations)
	ledgers  []svcLedger
	firsts   []*netdpsyn.Table // each input's first release, for fidelity
	hashes   [][sha256.Size]byte
	attempts int
	failures []svcFailure
}

func (c *svcClient) fail(op, format string, args ...any) {
	c.failures = append(c.failures, svcFailure{op, fmt.Sprintf(format, args...)})
}

func runService(cfg config) (rep *report, err error) {
	rep = &report{}
	rep.addLine("service: closed loop, %d clients; netdpsynd in-process on loopback with a state dir; runners=%d Workers=%d; %d-row UGR16/CIDDS uploads, eps=%g, %d GUM rounds; every %dth release evaluated (tvd, ml)",
		svcClients, svcRunners, svcWorkers, svcRows, svcEpsilon, svcRounds, svcEvalEvery)
	inputs, err := svcMakeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	prepared := cfg.scratchPath("svc-prepared")
	if err := svcPrepare(prepared, inputs); err != nil {
		return nil, fmt.Errorf("prepare state dir: %w", err)
	}

	// Set-up: a restart that recovers the prepared state dir. Each
	// repeat recovers a fresh copy; the last server stays up for the
	// run.
	quiesce()
	var setups setupTimes
	var srv *serve.Server
	for r := 0; r < svcSetups; r++ {
		dir := cfg.scratchPath(fmt.Sprintf("svc-state-%d", r))
		if err := copyDir(prepared, dir); err != nil {
			return nil, err
		}
		t0, c0 := time.Now(), processCPU()
		s, err := serve.NewServer(daemonOptions(dir, svcWorkers, svcRunners))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(t0, c0)
		if r < svcSetups-1 {
			if err := shutdownServer(s); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	if rec := srv.Recovery(); rec != nil {
		rep.addLine("set-up recovers %d dataset(s), %d job(s), %d persisted result(s) per restart",
			rec.Datasets, rec.Jobs, rec.PersistedResults)
	}
	d, err := serveLoopback(srv)
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := d.stop(); stopErr != nil && err == nil {
			rep, err = nil, stopErr
		}
	}()

	var fsync0, fsync1 [2]float64
	if fsync0[0], fsync0[1], err = d.fsyncTotals(); err != nil {
		return nil, err
	}
	clients := make([]*svcClient, svcClients)
	g := &gate{n: svcGated}
	quiesce()
	start := sampleHost()
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = &svcClient{
			firsts: make([]*netdpsyn.Table, svcInputs),
			hashes: make([][sha256.Size]byte, svcInputs),
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			svcClientLoop(d, clients[c], inputs[c], cfg, c, start.wall, g)
		}(c)
	}
	wg.Wait()
	end := sampleHost()
	if fsync1[0], fsync1[1], err = d.fsyncTotals(); err != nil {
		return nil, err
	}
	g.close(rep, end)
	rep.addHostLines("whole run", start.to(end))

	// Merge the clients, then check every dataset's ledger against the
	// ρ its jobs reported.
	var (
		rels         []svcRelease
		evals, evRun []float64
		raws, firsts []*netdpsyn.Table
	)
	for c, cl := range clients {
		rep.attempted += cl.attempts
		for _, f := range cl.failures {
			rep.fail(fmt.Sprintf("client %d %s", c, f.op), "%s", f.msg)
		}
		rels = append(rels, cl.releases...)
		evals = append(evals, cl.evals...)
		evRun = append(evRun, cl.evalRuns...)
		for k := range inputs[c] {
			raws = append(raws, inputs[c][k].raw)
			firsts = append(firsts, cl.firsts[k])
		}
		for _, l := range cl.ledgers {
			var st serve.Status
			op := fmt.Sprintf("client %d %s", c, l.op)
			if err := d.call(http.MethodGet, "/datasets/"+l.dataset+"/budget", nil, http.StatusOK, &st); err != nil {
				rep.fail(op, "budget %s: %v", l.dataset, err)
				continue
			}
			if math.Abs(st.SpentRho-l.rho) > 1e-12*math.Max(1, l.rho) {
				rep.fail(op, "dataset %s: spent_rho %v, jobs reported %v", l.dataset, st.SpentRho, l.rho)
			}
		}
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("no release completed")
	}
	slices.SortFunc(rels, func(a, b svcRelease) int { return a.done.Compare(b.done) })
	fid, err := meanFidelity(raws, firsts)
	if err != nil {
		return nil, err
	}

	var totals, traced, untraced []float64
	var reg, sub, qw, run, fetch, unattr []float64
	var stages []map[string]stageTime
	var wasted float64
	for i, r := range rels {
		totals = append(totals, r.total)
		if i >= g.n { // the breakdown covers the gated releases
			continue
		}
		if !r.traced {
			untraced = append(untraced, r.total)
			continue
		}
		traced = append(traced, r.total)
		reg = append(reg, r.register)
		sub = append(sub, r.submit)
		qw = append(qw, r.queueWait)
		run = append(run, r.run)
		fetch = append(fetch, r.fetch)
		stages = append(stages, r.stages)
		wasted += float64(r.polls - 1)
		unattr = append(unattr, r.total-r.register-r.submit-r.queueWait-r.run-r.fetch)
	}
	rep.addEndToEnd(setups, totals, start, g, fid, len(raws))
	rep.endToEnd = append(rep.endToEnd, metric{name: "eval_s_p50", value: median(evals), unit: "s", n: len(evals), note: "(whole run)"})
	if cfg.trace {
		rep.perLayer = append(rep.perLayer,
			metric{name: "serve.register_s", value: median(reg), unit: "s", n: len(reg)},
			metric{name: "serve.submit_s", value: median(sub), unit: "s", n: len(sub)},
			metric{name: "serve.queue_wait_s", value: median(qw), unit: "s", n: len(qw)},
			metric{name: "serve.run_s", value: median(run), unit: "s", n: len(run)},
			metric{name: "serve.result_fetch_s", value: median(fetch), unit: "s", n: len(fetch)},
			metric{name: "serve.polls_per_release", value: wasted / float64(len(traced)), unit: "count", n: len(traced), note: "(status reads that found the job unfinished)"},
			metric{name: "serve.eval_run_s", value: median(evRun), unit: "s", n: len(evRun)},
		)
		rep.perLayer = append(rep.perLayer, persistLayer(fsync0, fsync1, len(rels))...)
		rep.addLayers(stages, unattr, start, g, traced, untraced)
	}
	return rep, nil
}

// svcClientLoop is one closed-loop client: it starts releases while
// the gate keeps the run going, evaluating every svcEvalEvery-th one.
func svcClientLoop(d *daemon, cl *svcClient, inputs []svcInput, cfg config, c int, start time.Time, g *gate) {
	schema := netdpsyn.FlowSchema("label")
	for k := 0; k < svcInputs || g.running(start, cfg.seconds); k++ {
		ki := k % svcInputs
		in := inputs[ki]
		op := fmt.Sprintf("release %d", k)
		cl.attempts++
		rel := svcRelease{traced: cfg.trace && k%2 == 1}
		var full *serve.JobInfo
		if rel.traced {
			full = &serve.JobInfo{}
		}
		t0 := time.Now()
		var info serve.Info
		if err := d.call(http.MethodPost, svcRegister, in.csv, http.StatusCreated, &info); err != nil {
			cl.fail(op, "%v", err)
			continue
		}
		t1 := time.Now()
		var ack serve.SynthesisResponse
		if err := d.postJSON("/datasets/"+info.ID+"/synthesize", svcSynthRequest(in.seed), http.StatusAccepted, &ack); err != nil {
			cl.fail(op, "%v", err)
			continue
		}
		t2 := time.Now()
		st, polls, err := d.pollJob(ack.JobID, jobDone, full)
		if err != nil {
			cl.fail(op, "%v", err)
			continue
		}
		t3 := time.Now()
		body, err := d.fetch(http.MethodGet, "/jobs/"+ack.JobID+"/result.csv", nil, http.StatusOK)
		if err != nil {
			cl.fail(op, "%v", err)
			continue
		}
		t4 := time.Now()
		g.release()
		rel.done = t4
		rel.total = t4.Sub(t0).Seconds()
		rel.register = t1.Sub(t0).Seconds()
		rel.submit = t2.Sub(t1).Seconds()
		rel.fetch = t4.Sub(t3).Seconds()
		rel.polls = polls
		if full != nil {
			rel.queueWait = between(&full.Submitted, full.Started)
			rel.run = between(full.Started, full.Finished)
			rel.stages = stageMS(full.Stages)
		}
		cl.releases = append(cl.releases, rel)
		ledger := svcLedger{op: op, dataset: info.ID, rho: ack.Rho}

		// Checks: parse back, row count, byte-identical repeats.
		back, err := netdpsyn.LoadCSV(bytes.NewReader(body), schema)
		switch {
		case err != nil:
			cl.fail(op, "parse back: %v", err)
		case back.NumRows() != st.Records:
			cl.fail(op, "%d rows, job reported %d", back.NumRows(), st.Records)
		default:
			sum := sha256.Sum256(body)
			if cl.firsts[ki] == nil {
				cl.firsts[ki], cl.hashes[ki] = back, sum
			} else if sum != cl.hashes[ki] {
				cl.fail(op, "input %d's release differs from its first release", ki)
			}
		}

		if k%svcEvalEvery == svcEvalEvery-1 {
			cl.attempts++
			rho, err := svcEvaluate(d, cl, ack.JobID, info.ID, subSeed(cfg.seed, 12, uint64(c), uint64(k)), rel.traced)
			if err != nil {
				cl.fail(fmt.Sprintf("evaluation %d", k), "%v", err)
			}
			ledger.rho += rho
		}
		cl.ledgers = append(cl.ledgers, ledger)
	}
}

// svcEvaluate scores a finished release (tvd + ml, charged) and waits
// for the scores; it returns the ρ the evaluation reported.
func svcEvaluate(d *daemon, cl *svcClient, job, dataset string, seed uint64, traced bool) (float64, error) {
	t0 := time.Now()
	var ack serve.EvaluationResponse
	req := serve.EvaluationRequest{JobID: job, Metrics: []string{serve.MetricTVD, serve.MetricML}, Epsilon: svcEvalEps, Seed: seed}
	if err := d.postJSON("/datasets/"+dataset+"/evaluate", req, http.StatusAccepted, &ack); err != nil {
		return 0, err
	}
	var full serve.JobInfo
	if _, _, err := d.pollJob(ack.JobID, jobDone, &full); err != nil {
		return ack.Rho, err
	}
	cl.evals = append(cl.evals, time.Since(t0).Seconds())
	if traced {
		cl.evalRuns = append(cl.evalRuns, between(full.Started, full.Finished))
	}
	ev := full.Evaluation
	if ev == nil || ev.Fidelity == nil || len(ev.ML) == 0 {
		return ack.Rho, fmt.Errorf("job %s finished without tvd and ml scores", ack.JobID)
	}
	return ack.Rho, nil
}
