// Command perfbench is the end-to-end benchmark of netdpsyn (the
// library/CLI path) and netdpsynd (the HTTP service, served in-process
// on loopback). Each invocation runs one closed-loop workload for a
// fixed number of seconds, checks every release it makes, and prints
// a human-readable report followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown instead. README.md in
// this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs pins GOMAXPROCS: the benchmark's settings must not follow the
// host's core count.
const procs = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// dir is a fresh scratch directory for this run (state dirs,
	// spools); it is removed when the run ends.
	dir string
}

// workload runs one benchmark workload and returns its report.
type workload func(cfg config) (*report, error)

var workloads = map[string]workload{
	"batch":   runBatch,
	"service": runService,
	"follow":  runFollow,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: batch, service or follow")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed run in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer breakdown instead of the end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for the run's scratch state")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload batch|service|follow --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+*name+"-")
	if err != nil {
		fatal(err)
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		dir:      dir,
	}
	rep, err := run(cfg)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	if err := rep.print(os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// metric is one reported number. n is the sample count behind it (0
// when it is not a statistic over samples).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report is a finished run: operation counts, both metric sets, and
// free-form lines that explain the run (settings, host noise, checks).
type report struct {
	attempted int
	// failedOps names the attempted operations that failed or did not
	// pass a check; an operation counts once however many of its
	// checks fail.
	failedOps map[string]bool
	messages  int
	endToEnd  []metric
	perLayer  []metric
	lines     []string
}

func (r *report) addLine(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail marks operation op as failed and records why; the run goes on.
func (r *report) fail(op, format string, args ...any) {
	if r.failedOps == nil {
		r.failedOps = make(map[string]bool)
	}
	r.failedOps[op] = true
	if r.messages++; r.messages <= 20 {
		r.addLine("check failed: "+op+": "+format, args...)
	}
}

// failed is the number of attempted operations that failed.
func (r *report) failed() int { return len(r.failedOps) }

// endToEndNames and perLayerNames are the metrics the JSON line
// carries, in the order BENCHMARK.json lists them.
var (
	endToEndNames = []string{"setup_s", "release_s_p50", "cpu_s_per_release", "ok_frac", "peak_rss_mb", "fidelity_err"}
	perLayerNames = []string{
		"dataset.decode_s", "dataset.encode_s",
		"core.preprocess_s", "core.select_s", "core.publish_s", "core.postprocess_s",
		"core.decode_s", "core.gum_s", "core.gum_busy_per_wall",
		"serve.register_s", "serve.submit_s", "serve.queue_wait_s", "serve.run_s",
		"serve.result_fetch_s", "serve.polls_per_release", "serve.put_window_s",
		"serve.window_lag_s", "serve.eval_run_s",
		"persist.fsyncs_per_release", "persist.fsync_s_per_release",
		"runtime.alloc_mb_per_release", "runtime.gc_per_release", "runtime.gc_pause_s_per_release",
		"unattributed_s", "host.steal_frac",
		"trace.release_s_p50", "trace.untraced_release_s_p50", "trace.overhead_s",
	}
	perLayerUnits = map[string]string{
		"core.gum_busy_per_wall":       "ratio",
		"serve.polls_per_release":      "count",
		"persist.fsyncs_per_release":   "count",
		"runtime.alloc_mb_per_release": "MB",
		"runtime.gc_per_release":       "count",
		"host.steal_frac":              "ratio",
	}
)

// print writes the human-readable report and then the JSON result
// line. The report lists every metric the run produced; the JSON
// carries the set --trace selects. A per-layer metric the workload
// cannot time separately (its layer is off the release path, or inside
// a coarser span) reads 0 and says so.
func (r *report) print(w io.Writer, cfg config) error {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, procs)
	for _, l := range r.lines {
		fmt.Fprintf(w, "# %s\n", l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	emit := func(title string, names []string, have []metric, zeroFill bool) error {
		fmt.Fprintf(w, "# %s\n", title)
		byName := make(map[string]metric, len(have))
		for _, m := range have {
			byName[m.name] = m
		}
		for _, name := range names {
			m, ok := byName[name]
			switch {
			case ok:
			case zeroFill:
				unit := perLayerUnits[name]
				if unit == "" {
					unit = "s"
				}
				m = metric{name: name, unit: unit, note: "(not timed separately on this workload)"}
				have = append(have, m)
			default:
				return fmt.Errorf("workload %s did not produce metric %s", cfg.workload, name)
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return fmt.Errorf("metric %s is %v", name, m.value)
			}
			metrics[name] = value{m.value, m.unit}
		}
		for _, m := range have {
			line := fmt.Sprintf("#   %-32s %14.6g %-6s", m.name, m.value, m.unit)
			if m.n > 0 {
				line += fmt.Sprintf(" n=%d", m.n)
			}
			if m.note != "" {
				line += " " + m.note
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
		return nil
	}
	var err error
	if cfg.trace {
		err = emit("per-layer metrics (traced run)", perLayerNames, r.perLayer, true)
	} else {
		err = emit("end-to-end metrics", endToEndNames, r.endToEnd, false)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed() == 0 && r.attempted > 0, r.attempted, r.failed(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentiles returns the median metric and, when at least minBeyond
// samples lie above it, the p90 metric; otherwise the report says why
// the p90 is absent. Each carries the host steal of its window, so a
// noisy run explains itself.
func (r *report) percentiles(prefix string, xs []float64, steal float64) []metric {
	n := len(xs)
	stealNote := fmt.Sprintf("(steal_frac=%.4f)", steal)
	out := []metric{{name: prefix + "_p50", value: median(xs), unit: "s", n: n, note: stealNote}}
	beyond := n - int(math.Ceil(0.9*float64(n)))
	if beyond >= minBeyond {
		out = append(out, metric{name: prefix + "_p90", value: quantile(xs, 0.9), unit: "s", n: n,
			note: fmt.Sprintf("(%d samples beyond it) %s", beyond, stealNote)})
	} else {
		r.addLine("%s_p90 not reported: %d samples, only %d beyond the 90th percentile (%d needed)",
			prefix, n, beyond, minBeyond)
	}
	return out
}

// addDrift records how release time moved over the run: the median of
// the first and of the last tenth of the releases, in completion order.
func (r *report) addDrift(totals []float64) {
	k := len(totals) / 10
	if k == 0 {
		return
	}
	r.addLine("drift: release_s median of the first %d releases %.6g, of the last %d %.6g",
		k, median(totals[:k]), k, median(totals[len(totals)-k:]))
}

// subSeed derives an independent seed for one purpose from the run
// seed (splitmix64 finalizer over the seed and the purpose tags).
func subSeed(seed uint64, tags ...uint64) uint64 {
	z := seed
	for _, t := range tags {
		z ^= t + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// scratchPath joins a run-local name under the run directory.
func (c config) scratchPath(name string) string { return filepath.Join(c.dir, name) }
