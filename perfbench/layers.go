package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// stageTime is one engine stage's wall and summed worker-busy time, in
// seconds, as a release's own surface reports it: Result.Stages on the
// library path, the job's stages or trace spans on the service.
type stageTime struct{ wall, busy float64 }

// coreStages are the engine's pipeline stages, in execution order.
var coreStages = []string{"preprocess", "select", "publish", "postprocess", "gum", "decode"}

func stageWallSum(st map[string]stageTime) float64 {
	var s float64
	for _, t := range st {
		s += t.wall
	}
	return s
}

// coreLayer is the engine's per-stage breakdown: the median wall time
// of each stage per release, and GUM's parallel efficiency (median
// busy/wall of the gum stage).
func coreLayer(releases []map[string]stageTime) []metric {
	var out []metric
	for _, name := range coreStages {
		var xs []float64
		for _, st := range releases {
			xs = append(xs, st[name].wall)
		}
		out = append(out, metric{name: "core." + name + "_s", value: median(xs), unit: "s", n: len(xs)})
	}
	var eff []float64
	for _, st := range releases {
		if g := st["gum"]; g.wall > 0 {
			eff = append(eff, g.busy/g.wall)
		}
	}
	out = append(out, metric{name: "core.gum_busy_per_wall", value: median(eff), unit: "ratio", n: len(eff)})
	return out
}

// okFrac is the share of attempted operations that succeeded and
// passed every check.
func okFrac(rep *report) metric {
	return metric{
		name:  "ok_frac",
		value: float64(rep.attempted-rep.failed()) / float64(rep.attempted),
		unit:  "ratio",
		n:     rep.attempted,
	}
}

// traceOverhead compares the traced releases of a traced run with the
// untraced releases interleaved with them in the same run.
func traceOverhead(traced, untraced []float64) []metric {
	t, u := median(traced), median(untraced)
	return []metric{
		{name: "trace.release_s_p50", value: t, unit: "s", n: len(traced)},
		{name: "trace.untraced_release_s_p50", value: u, unit: "s", n: len(untraced)},
		{name: "trace.overhead_s", value: t - u, unit: "s"},
	}
}

// setupTimes collects a run's repeated set-ups.
type setupTimes struct{ cpu, wall []float64 }

// add records one set-up that started at t0 with process CPU time c0.
func (s *setupTimes) add(t0 time.Time, c0 time.Duration) {
	s.cpu = append(s.cpu, (processCPU() - c0).Seconds())
	s.wall = append(s.wall, time.Since(t0).Seconds())
}

// metric is setup_s: the median process CPU time (user + system, the
// in-process server's share included) of one set-up. CPU time is the
// set-up work itself; the wall-clock median, which also holds fsync
// waits and host steal, is printed beside it.
func (s *setupTimes) metric() metric {
	return metric{
		name: "setup_s", value: median(s.cpu), unit: "s", n: len(s.cpu),
		note: fmt.Sprintf("(process CPU; wall-clock median %.4g s, range %.4g-%.4g)",
			median(s.wall), slices.Min(s.wall), slices.Max(s.wall)),
	}
}

// gate closes the gated part of a timed run: its first n releases.
// The gated end-to-end metrics cover exactly those releases, so they do
// not depend on how many releases a run fits before its deadline — the
// cost of a release can grow with the releases before it (the service
// keeps every registered dataset, and a follow job's status carries its
// whole window trace), so a faster program would otherwise be charged
// for the extra releases it fits. The run goes on to its deadline;
// releases past n feed the report lines and the traced breakdown only.
type gate struct {
	n    int
	mu   sync.Mutex
	seen int
	at   hostSample // sampled as release n completes
	rss  float64    // peak RSS at that moment
}

// release counts one completed release.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.seen++; g.seen == g.n {
		g.at, g.rss = sampleHost(), peakRSSMB()
	}
}

// open reports whether fewer than n releases have completed.
func (g *gate) open() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seen < g.n
}

// running reports whether a closed loop starts another release: until
// the deadline, and past it while the gate is open, up to a hard stop
// at four run lengths so a much slower program still ends its run.
func (g *gate) running(start time.Time, seconds time.Duration) bool {
	now := time.Now()
	return now.Before(start.Add(seconds)) || (g.open() && now.Before(start.Add(4*seconds)))
}

// close ends the run. A gate the run never reached closes at the end
// sample, over every release the run completed, and the report says so.
func (g *gate) close(r *report, end hostSample) {
	if g.open() {
		r.addLine("gated metrics cover %d releases: the run stopped before release %d", g.seen, g.n)
		g.at, g.rss = end, peakRSSMB()
	}
}

// addEndToEnd appends the end-to-end metrics every workload reports.
// totals are the release times in completion order; the gated metrics
// cover the first g.n of them and the process counters from start to
// the gate. The whole run is summarized in the report lines.
func (r *report) addEndToEnd(setups setupTimes, totals []float64, start hostSample, g *gate, fid float64, fidN int) {
	gated := totals[:min(len(totals), g.n)]
	n := len(gated)
	window := start.to(g.at)
	r.addHostLines(fmt.Sprintf("first %d releases", n), window)
	r.addLine("whole run: %d releases, release_s_p50 %.6g", len(totals), median(totals))
	r.addDrift(totals)
	r.endToEnd = append(r.endToEnd, setups.metric())
	r.endToEnd = append(r.endToEnd, r.percentiles("release_s", gated, window.stealFrac)...)
	r.endToEnd = append(r.endToEnd,
		metric{name: "releases_per_s", value: float64(n) / window.wall.Seconds(), unit: "1/s", n: n},
		metric{name: "cpu_s_per_release", value: window.cpu.Seconds() / float64(n), unit: "s", n: n},
		okFrac(r),
		metric{name: "peak_rss_mb", value: g.rss, unit: "MB", note: fmt.Sprintf("(at release %d)", n)},
		metric{name: "fidelity_err", value: fid, unit: "score", n: fidN},
	)
}

// addLayers appends the per-layer metrics every workload reports: the
// engine stages, the unattributed residual, the Go runtime's cost per
// release, and the tracing overhead.
func (r *report) addLayers(stages []map[string]stageTime, unattributed []float64, start hostSample, g *gate, traced, untraced []float64) {
	r.perLayer = append(r.perLayer, coreLayer(stages)...)
	r.perLayer = append(r.perLayer, metric{name: "unattributed_s", value: median(unattributed), unit: "s", n: len(unattributed)})
	r.perLayer = append(r.perLayer, runtimeLayer(start.to(g.at), min(g.seen, g.n))...)
	r.perLayer = append(r.perLayer, traceOverhead(traced, untraced)...)
}
