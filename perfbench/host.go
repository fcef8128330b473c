package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is a snapshot of the process and host counters a run is
// judged against: wall clock, process CPU time, the host's CPU ticks
// (to derive steal), and the Go runtime's allocation and GC totals.
type hostSample struct {
	wall        time.Time
	cpu         time.Duration // process user + system time
	ticksTotal  uint64        // all host CPU ticks in /proc/stat
	ticksSteal  uint64        // ticks stolen by the hypervisor
	ticksOK     bool
	totalAlloc  uint64
	numGC       uint32
	pauseTotalN uint64
}

func sampleHost() hostSample {
	s := hostSample{wall: time.Now(), cpu: processCPU()}
	s.ticksTotal, s.ticksSteal, s.ticksOK = hostTicks()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC, s.pauseTotalN = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	return s
}

// hostDelta is what happened between two samples.
type hostDelta struct {
	wall, cpu  time.Duration
	stealFrac  float64 // 0 when /proc/stat is unreadable
	allocBytes uint64
	gcs        uint32
	gcPause    time.Duration
}

func (a hostSample) to(b hostSample) hostDelta {
	d := hostDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.totalAlloc - a.totalAlloc,
		gcs:        b.numGC - a.numGC,
		gcPause:    time.Duration(b.pauseTotalN - a.pauseTotalN),
	}
	if a.ticksOK && b.ticksOK && b.ticksTotal > a.ticksTotal {
		d.stealFrac = float64(b.ticksSteal-a.ticksSteal) / float64(b.ticksTotal-a.ticksTotal)
	}
	return d
}

// quiesce settles the process and the disk before a measured phase:
// it collects the preparation's garbage and flushes dirty pages, so
// set-up fsyncs do not queue behind the writeback of files the
// preparation (or a previous run) wrote.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

// processCPU is this process's user + system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostTicks reads the aggregate "cpu" line of /proc/stat: the sum of
// user..steal ticks (guest time is already inside user) and the steal
// ticks alone.
func hostTicks() (total, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return 0, 0, false
			}
			total += v
			if i == 8 {
				steal = v
			}
		}
		return total, steal, true
	}
	return 0, 0, false
}

// addHostLines records the run's noise diagnostics in the report:
// host steal and process CPU over a timed window. Every run prints
// them, traced or not.
func (r *report) addHostLines(label string, d hostDelta) {
	r.addLine("host (%s): steal_frac=%.4f process_cpu_s=%.3f wall_s=%.3f cpu_per_wall=%.3f",
		label, d.stealFrac, d.cpu.Seconds(), d.wall.Seconds(), d.cpu.Seconds()/d.wall.Seconds())
}

// runtimeLayer is the per-release Go runtime cost of a timed window.
func runtimeLayer(d hostDelta, releases int) []metric {
	n := float64(releases)
	return []metric{
		{name: "runtime.alloc_mb_per_release", value: float64(d.allocBytes) / (1 << 20) / n, unit: "MB", note: fmt.Sprintf("(over %d releases)", releases)},
		{name: "runtime.gc_per_release", value: float64(d.gcs) / n, unit: "count"},
		{name: "runtime.gc_pause_s_per_release", value: d.gcPause.Seconds() / n, unit: "s"},
		{name: "host.steal_frac", value: d.stealFrac, unit: "ratio"},
	}
}
