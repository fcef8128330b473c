package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/netdpsyn/netdpsyn/internal/serve"
)

// pollInterval is how long a client sleeps between status reads of a
// job it waits on: the interval the repository's own HTTP clients of
// netdpsynd use (the serve package's tests poll GET /jobs/{id} every
// 10 ms while they wait on a job or a window).
const pollInterval = 10 * time.Millisecond

// daemon is a netdpsynd server on a loopback listener in this process,
// with an HTTP client that talks to it the way a remote user would.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// daemonOptions are the service settings every workload fixes: the
// engine-worker budget and job-runner count, a registry large enough
// for a whole run, and a silent log.
func daemonOptions(stateDir string, workers, runners int) serve.Options {
	return serve.Options{
		Workers:           workers,
		MaxConcurrentJobs: runners,
		MaxDatasets:       1 << 20,
		StateDir:          stateDir,
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// serveLoopback starts serving srv on an ephemeral loopback port.
func serveLoopback(srv *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 8,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// startDaemon constructs the service and serves it.
func startDaemon(opts serve.Options) (*daemon, error) {
	srv, err := serve.NewServer(opts)
	if err != nil {
		return nil, err
	}
	d, err := serveLoopback(srv)
	if err != nil {
		_ = shutdownServer(srv)
		return nil, err
	}
	return d, nil
}

// stop closes the listener and every connection, then drains the job
// queue and compacts the state dir, and waits for the serve loop.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	httpErr := d.hs.Shutdown(ctx)
	d.client.CloseIdleConnections()
	srvErr := shutdownServer(d.srv)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(httpErr, srvErr)
}

// call sends one request and requires the given status. A non-nil out
// receives the decoded JSON response.
func (d *daemon) call(method, path string, body []byte, want int, out any) error {
	raw, err := d.fetch(method, path, body, want)
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// fetch sends one request, reads the response to EOF, and requires
// the given status.
func (d *daemon) fetch(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (d *daemon) postJSON(path string, in any, want int, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return d.call(http.MethodPost, path, b, want, out)
}

// jobState is the part of GET /jobs/{id} an untraced poll reads.
type jobState struct {
	State       serve.JobState `json:"state"`
	Error       string         `json:"error"`
	Records     int            `json:"records"`
	WindowsDone int            `json:"windows_done"`
}

// readJobState decodes the fields of a GET /jobs/{id} body a poll
// needs. It stops at "trace", the last field, so a poll's own decoding
// does not grow with a follow job's window trace.
func readJobState(raw []byte) (jobState, error) {
	var st jobState
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return st, fmt.Errorf("not a JSON object")
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return st, err
		}
		var dst any
		switch tok {
		case "state":
			dst = &st.State
		case "error":
			dst = &st.Error
		case "records":
			dst = &st.Records
		case "windows_done":
			dst = &st.WindowsDone
		case "trace":
			return st, nil
		default:
			dst = &json.RawMessage{}
		}
		if err := dec.Decode(dst); err != nil {
			return st, err
		}
	}
	return st, nil
}

// pollJob reads GET /jobs/{id} until done(state) holds, sleeping
// pollInterval between reads, and returns the number of reads. With
// full non-nil the final read is also decoded into it (the traced
// path: timestamps, stages, trace).
func (d *daemon) pollJob(id string, done func(jobState) bool, full *serve.JobInfo) (jobState, int, error) {
	deadline := time.Now().Add(30 * time.Second)
	for polls := 1; ; polls++ {
		raw, err := d.fetch(http.MethodGet, "/jobs/"+id, nil, http.StatusOK)
		if err != nil {
			return jobState{}, polls, err
		}
		st, err := readJobState(raw)
		if err != nil {
			return st, polls, fmt.Errorf("job %s: decode: %w", id, err)
		}
		if st.State == serve.JobFailed {
			return st, polls, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		if done(st) {
			if full != nil {
				if err := json.Unmarshal(raw, full); err != nil {
					return st, polls, fmt.Errorf("job %s: decode: %w", id, err)
				}
			}
			return st, polls, nil
		}
		if time.Now().After(deadline) {
			return st, polls, fmt.Errorf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(pollInterval)
	}
}

func jobDone(st jobState) bool { return st.State == serve.JobDone }

// fsyncTotals reads the journal's fsync histogram from GET /metrics:
// the number of journal appends (each one fsync'd) and their summed
// latency in seconds.
func (d *daemon) fsyncTotals() (count, seconds float64, err error) {
	raw, err := d.fetch(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "netdpsynd_journal_fsync_seconds_count":
			count, err = strconv.ParseFloat(val, 64)
		case "netdpsynd_journal_fsync_seconds_sum":
			seconds, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("metrics: %s: %w", name, err)
		}
	}
	return count, seconds, sc.Err()
}

// persistLayer is the journal's per-release fsync work over a timed
// window, from two /metrics scrapes.
func persistLayer(before, after [2]float64, releases int) []metric {
	n := float64(releases)
	return []metric{
		{name: "persist.fsyncs_per_release", value: (after[0] - before[0]) / n, unit: "count", note: fmt.Sprintf("(over %d releases)", releases)},
		{name: "persist.fsync_s_per_release", value: (after[1] - before[1]) / n, unit: "s"},
	}
}

// between is a server-side interval in seconds (0 when either end is
// not reported).
func between(from, to *time.Time) float64 {
	if from == nil || to == nil {
		return 0
	}
	return to.Sub(*from).Seconds()
}

// shutdownServer drains and closes a server that never served.
func shutdownServer(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// copyDir copies the regular files of a directory tree (a prepared
// state dir) to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !e.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// stageMS converts a job's reported stage timings to seconds.
func stageMS(in map[string]serve.StageMS) map[string]stageTime {
	out := make(map[string]stageTime, len(in))
	for name, st := range in {
		out[name] = stageTime{wall: st.WallMS / 1e3, busy: st.BusyMS / 1e3}
	}
	return out
}
