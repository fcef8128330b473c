package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/datagen"
	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// The follow workload: live ingest. One feed, one follow job, and a
// single producer that PUTs consecutive time-bucket windows, each only
// after the previous one is released.
const (
	followRows     = 300 // rows per window
	followChunks   = 32  // distinct window contents the producer cycles through
	followRunners  = 1
	followWorkers  = 2
	followEpsilon  = 2.0
	followRounds   = 20
	followSetups   = 61  // feed registrations + follow admissions; setup_s is their median
	followFidelity = 32  // windows fidelity_err averages over
	followGated    = 360 // windows the gated metrics cover (see gate)
)

const followRegister = "/datasets?schema=flow&label=label&feed=1&span="

// followWindows cuts a time-sorted UGR16 trace into followChunks
// consecutive chunks of followRows rows and picks a span wider than
// any chunk's time range, so a chunk shifted to start at b·span lies
// wholly in bucket b.
func followWindows(seed uint64) ([]*netdpsyn.Table, int64, error) {
	t, err := datagen.Generate(datagen.UGR16, datagen.Config{Rows: followRows * followChunks, Seed: subSeed(seed, 20)})
	if err != nil {
		return nil, 0, err
	}
	tsCol := t.Schema().Index(netdpsyn.FieldTS)
	t = t.SortBy(tsCol)
	chunks := make([]*netdpsyn.Table, followChunks)
	var widest int64
	for i := range chunks {
		c := netdpsyn.NewTable(t.Schema(), followRows)
		if err := c.AppendRowRange(t, i*followRows, (i+1)*followRows); err != nil {
			return nil, 0, err
		}
		ts := c.Column(tsCol)
		t0 := ts[0]
		for r := range ts {
			ts[r] -= t0
		}
		widest = max(widest, ts[len(ts)-1])
		chunks[i] = c
	}
	span := int64(1)
	for span <= widest {
		span *= 10
	}
	return chunks, span, nil
}

// followWindow renders window b: chunk b mod followChunks with its
// timestamps moved into bucket b.
func followWindow(chunks []*netdpsyn.Table, span int64, b int) (*netdpsyn.Table, []byte, error) {
	w := chunks[b%followChunks].Clone()
	ts := w.Column(w.Schema().Index(netdpsyn.FieldTS))
	for r := range ts {
		ts[r] += int64(b) * span
	}
	var buf bytes.Buffer
	if err := w.WriteCSV(&buf); err != nil {
		return nil, nil, err
	}
	return w, buf.Bytes(), nil
}

// followSetup registers a feed and admits its follow job.
func followSetup(d *daemon, span int64, seed uint64) (serve.Info, serve.SynthesisResponse, error) {
	var info serve.Info
	var ack serve.SynthesisResponse
	if err := d.call(http.MethodPost, followRegister+strconv.FormatInt(span, 10), nil, http.StatusCreated, &info); err != nil {
		return info, ack, err
	}
	req := serve.SynthesisRequest{Epsilon: followEpsilon, Iterations: followRounds, Seed: seed, Follow: true}
	err := d.postJSON("/datasets/"+info.ID+"/synthesize", req, http.StatusAccepted, &ack)
	return info, ack, err
}

// followConfig is the library configuration equal to the follow job's
// request.
func followConfig(seed uint64) netdpsyn.Config {
	return netdpsyn.Config{Epsilon: followEpsilon, UpdateIterations: followRounds, Workers: followWorkers, Seed: seed}
}

type followRelease struct {
	total, put, lag float64
	polls           int
	stages          map[string]stageTime
	traced          bool
}

func runFollow(cfg config) (rep *report, err error) {
	rep = &report{}
	rep.addLine("follow: closed loop, 1 producer; one feed + one follow job on netdpsynd in-process on loopback with a state dir; runners=%d Workers=%d; %d-row UGR16 windows, eps=%g, %d GUM rounds",
		followRunners, followWorkers, followRows, followEpsilon, followRounds)
	chunks, span, err := followWindows(cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(daemonOptions(cfg.scratchPath("follow-state"), followWorkers, followRunners))
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := d.stop(); stopErr != nil && err == nil {
			rep, err = nil, stopErr
		}
	}()

	// Set-up: feed registration plus follow admission, repeated; every
	// feed but the last is sealed so its (empty) follow job finishes.
	// Each repeat starts after a collection, so no repeat pays for the
	// garbage of the ones before it.
	quiesce()
	var (
		setups setupTimes
		info   serve.Info
		ack    serve.SynthesisResponse
		seed   = subSeed(cfg.seed, 21)
	)
	for r := 0; r < followSetups; r++ {
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		info, ack, err = followSetup(d, span, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(t0, c0)
		if r == followSetups-1 {
			break
		}
		if err := d.call(http.MethodPost, "/datasets/"+info.ID+"/seal", nil, http.StatusOK, nil); err != nil {
			return nil, err
		}
		if _, _, err := d.pollJob(ack.JobID, jobDone, nil); err != nil {
			return nil, err
		}
	}
	rep.addLine("span=%d; follow job %s on %s, per-window rho=%g", span, ack.JobID, info.ID, ack.Rho)

	var fsync0, fsync1 [2]float64
	if fsync0[0], fsync0[1], err = d.fsyncTotals(); err != nil {
		return nil, err
	}
	var (
		rels []followRelease
		raws []*netdpsyn.Table // the first followFidelity windows as PUT
		g    = &gate{n: followGated}
	)
	quiesce()
	start := sampleHost()
	path := "/datasets/" + info.ID + "/windows/"
	for b := 0; b < followFidelity || g.running(start.wall, cfg.seconds); b++ {
		raw, body, err := followWindow(chunks, span, b)
		if err != nil {
			return nil, err
		}
		if b < followFidelity {
			raws = append(raws, raw)
		}
		rep.attempted++
		rel := followRelease{traced: cfg.trace && b%2 == 1}
		var full *serve.JobInfo
		if rel.traced {
			full = &serve.JobInfo{}
		}
		want := b + 1
		t0 := time.Now()
		if err := d.call(http.MethodPut, path+strconv.Itoa(b), body, http.StatusCreated, nil); err != nil {
			// Later windows would wait on this one forever.
			return nil, fmt.Errorf("window %d: %w", b, err)
		}
		t1 := time.Now()
		_, polls, err := d.pollJob(ack.JobID, func(st jobState) bool { return st.WindowsDone >= want }, full)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", b, err)
		}
		t2 := time.Now()
		g.release()
		rel.total, rel.put, rel.lag = t2.Sub(t0).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
		rel.polls = polls
		if full != nil {
			if len(full.Trace) < want {
				rep.fail(windowOp(b), "trace has %d entries", len(full.Trace))
			} else {
				rel.stages = spanStages(full.Trace[b].Spans)
			}
		}
		rels = append(rels, rel)
	}
	end := sampleHost()
	if fsync1[0], fsync1[1], err = d.fsyncTotals(); err != nil {
		return nil, err
	}
	g.close(rep, end)
	rep.addHostLines("whole run", start.to(end))

	fid, err := followCheck(d, rep, info.ID, ack, seed, span, raws, len(rels))
	if err != nil {
		return nil, err
	}

	var totals, traced, untraced, puts, lags, unattr []float64
	var wasted float64
	var stages []map[string]stageTime
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
		puts = append(puts, r.put)
		lags = append(lags, r.lag)
		wasted += float64(r.polls - 1)
		stages = append(stages, r.stages)
		unattr = append(unattr, r.total-r.put-stageWallSum(r.stages))
	}
	rep.addEndToEnd(setups, totals, start, g, fid, followFidelity)
	if cfg.trace {
		rep.perLayer = append(rep.perLayer,
			metric{name: "serve.put_window_s", value: median(puts), unit: "s", n: len(puts)},
			metric{name: "serve.window_lag_s", value: median(lags), unit: "s", n: len(lags)},
			metric{name: "serve.polls_per_release", value: wasted / float64(len(traced)), unit: "count", n: len(traced), note: "(status reads that found the window unreleased)"},
		)
		rep.perLayer = append(rep.perLayer, persistLayer(fsync0, fsync1, len(rels))...)
		rep.addLayers(stages, unattr, start, g, traced, untraced)
	}
	return rep, nil
}

// sealedOp is the operation that seals the feed and fetches the
// finished release; followCheck's job-wide checks count against it.
const sealedOp = "sealed release"

func windowOp(b int) string { return fmt.Sprintf("window %d", b) }

// followCheck seals the feed, lets the follow job finish, and checks
// its release: result.csv parses back with the job's records, its
// first len(raws) windows equal the library's release of them, and the
// ledger holds one window's ρ per released bucket. It returns
// fidelity_err over those first windows. A failed check marks the
// window it concerns, or the sealed release for job-wide checks.
func followCheck(d *daemon, rep *report, dataset string, ack serve.SynthesisResponse, seed uint64, span int64, raws []*netdpsyn.Table, windows int) (float64, error) {
	t0 := time.Now()
	status, err := d.fetch(http.MethodGet, "/jobs/"+ack.JobID, nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	rep.addLine("GET /jobs/%s after %d windows: %d bytes in %.6g s", ack.JobID, windows, len(status), time.Since(t0).Seconds())
	rep.attempted++ // the sealed release
	if err := d.call(http.MethodPost, "/datasets/"+dataset+"/seal", nil, http.StatusOK, nil); err != nil {
		return 0, err
	}
	var job serve.JobInfo
	if _, _, err := d.pollJob(ack.JobID, jobDone, &job); err != nil {
		return 0, err
	}
	body, err := d.fetch(http.MethodGet, "/jobs/"+ack.JobID+"/result.csv", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	out, err := netdpsyn.LoadCSV(bytes.NewReader(body), raws[0].Schema())
	if err != nil {
		rep.fail(sealedOp, "result.csv does not parse back: %v", err)
		for b := 0; b < windows; b++ {
			rep.fail(windowOp(b), "its release in result.csv cannot be read")
		}
		return 0, nil
	}
	if out.NumRows() != job.Records {
		rep.fail(sealedOp, "result.csv holds %d rows, job reported %d", out.NumRows(), job.Records)
	}
	if len(job.Trace) != windows {
		rep.fail(sealedOp, "job trace has %d windows, %d were released", len(job.Trace), windows)
	}

	// Cut the release into its windows: result.csv is the header, then
	// each window's rows in release order, as many as its trace entry
	// reports.
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	lines = lines[1:] // the header
	blocks := make([][]byte, len(job.Trace))
	ranges := make([][]int, len(job.Trace))
	off := 0
	for i, tr := range job.Trace {
		if tr.Records <= 0 || off+tr.Records > len(lines) {
			op := sealedOp // a trace entry past the windows sent
			if i < windows {
				op = windowOp(i)
			}
			rep.fail(op, "job reported %d records, %d rows left in result.csv", tr.Records, len(lines)-off)
			continue
		}
		blocks[i] = bytes.Join(lines[off:off+tr.Records], nil)
		for r := off; r < off+tr.Records; r++ {
			ranges[i] = append(ranges[i], r)
		}
		off += tr.Records
	}

	// The first windows must equal the library's release of the same
	// windows under the same seed (the live ≡ batch contract); that
	// pins each window's rows and its record count independently of
	// the service's own report.
	concat := netdpsyn.NewTable(raws[0].Schema(), len(raws)*followRows)
	for _, raw := range raws {
		if err := concat.AppendRowRange(raw, 0, raw.NumRows()); err != nil {
			return 0, err
		}
	}
	syn, err := netdpsyn.New(followConfig(seed))
	if err != nil {
		return 0, err
	}
	var lib [][]byte
	err = syn.SynthesizeTimeWindows(concat, span, func(wr netdpsyn.WindowResult) error {
		var buf bytes.Buffer
		if err := wr.Table.WriteCSVBody(&buf); err != nil {
			return err
		}
		lib = append(lib, buf.Bytes())
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("library replay: %w", err)
	}
	if len(lib) != len(raws) {
		return 0, fmt.Errorf("library replay cut %d windows, want %d", len(lib), len(raws))
	}
	for i := range lib {
		if i >= len(blocks) || !bytes.Equal(blocks[i], lib[i]) {
			rep.fail(windowOp(i), "release differs from the library's release of the same window")
		}
	}

	var st serve.Status
	if err := d.call(http.MethodGet, "/datasets/"+dataset+"/budget", nil, http.StatusOK, &st); err != nil {
		return 0, err
	}
	if math.Abs(st.SpentRho-ack.Rho) > 1e-12*math.Max(1, ack.Rho) {
		rep.fail(sealedOp, "spent_rho %v, follow job reported %v per window", st.SpentRho, ack.Rho)
	}
	if len(st.WindowRho) != windows {
		rep.fail(sealedOp, "ledger holds %d window keys, %d windows were released", len(st.WindowRho), windows)
	}
	for k, v := range st.WindowRho {
		if math.Abs(v-ack.Rho) > 1e-12*math.Max(1, ack.Rho) {
			rep.fail(sealedOp, "ledger key %s holds %v, want %v", k, v, ack.Rho)
		}
	}

	var sum float64
	for b, raw := range raws {
		if b >= len(ranges) || ranges[b] == nil {
			return 0, fmt.Errorf("fidelity: window %d has no release to score", b)
		}
		f, err := fidelityErr(raw, out.SelectRows(ranges[b]))
		if err != nil {
			return 0, err
		}
		sum += f
	}
	return sum / float64(len(raws)), nil
}

// spanStages sums a window's ordered stage spans per stage.
func spanStages(spans []serve.SpanMS) map[string]stageTime {
	out := make(map[string]stageTime, len(spans))
	for _, sp := range spans {
		st := out[sp.Stage]
		st.wall += sp.WallMS / 1e3
		st.busy += sp.BusyMS / 1e3
		out[sp.Stage] = st
	}
	return out
}
