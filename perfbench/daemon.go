package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one polygamyd process the benchmark started. It listens on a
// loopback port and logs to a file in the work directory.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
}

// startDaemon execs polygamyd with the given flags plus a loopback listen
// address and profiling endpoints (read for runtime statistics).
func startDaemon(e *env, logName string, args ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(e.work, logName))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.polygamyd, append([]string{"-addr", addr, "-pprof"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting polygamyd: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4, DisableCompression: true,
		}},
		exited: make(chan error, 1),
	}
	go func() { d.exited <- cmd.Wait() }()
	return d, nil
}

// waitReady polls /healthz until it answers 200; the server only listens
// once its corpus is indexed or loaded.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("polygamyd exited before it was ready: %v", err)
		default:
		}
		if status, _, _, err := d.do("GET", "/healthz", "", nil, ""); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("polygamyd not ready after %s", timeout)
}

// stop sends SIGTERM and waits for the process to exit, killing it if it
// does not drain in time.
func (d *daemon) stop() error {
	if d == nil || d.cmd.Process == nil {
		return nil
	}
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait below reports that
	select {
	case err := <-d.exited:
		d.exited <- err
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // it would not drain; the wait below reaps it
		err := <-d.exited
		d.exited <- err
		return fmt.Errorf("polygamyd did not stop on SIGTERM")
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// do issues one request and reads the whole body. The op ID, when set,
// travels as X-Request-ID so server logs correlate with spans.
func (d *daemon) do(method, path, contentType string, body []byte, op string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if op != "" {
		req.Header.Set("X-Request-ID", op)
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, blob, time.Since(t0), err
}

// get issues a GET and fails on any non-2xx status.
func (d *daemon) get(path, op string) ([]byte, time.Duration, error) {
	status, blob, dur, err := d.do("GET", path, "", nil, op)
	if err == nil && (status < 200 || status > 299) {
		err = fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(blob))
	}
	return blob, dur, err
}

// post issues a POST and fails on any non-2xx status.
func (d *daemon) post(path, contentType string, body []byte, op string) ([]byte, time.Duration, error) {
	status, blob, dur, err := d.do("POST", path, contentType, body, op)
	if err == nil && (status < 200 || status > 299) {
		err = fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(blob))
	}
	return blob, dur, err
}

// scrape reads /metrics.
func (d *daemon) scrape() (prom, error) {
	blob, _, err := d.get("/metrics", "")
	if err != nil {
		return nil, err
	}
	return parseProm(blob), nil
}

// runtimeStats reads the server's GC CPU fraction and live heap from the
// runtime.MemStats block of its heap profile.
func (d *daemon) runtimeStats(out map[string]float64) error {
	blob, _, err := d.get("/debug/pprof/heap?debug=1", "")
	if err != nil {
		return err
	}
	found := 0
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "# GCCPUFraction = "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return err
			}
			out["runtime.gc_cpu_frac"] = f
			found++
		}
		if v, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return err
			}
			out["runtime.heap_live_mb"] = mb(f)
			found++
		}
	}
	if found != 2 {
		return errors.New("heap profile has no runtime.MemStats block")
	}
	return nil
}

// jobWire is the part of polygamyd's job JSON the benchmark reads.
type jobWire struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Error    string         `json:"error"`
	Started  string         `json:"started"`
	Finished string         `json:"finished"`
	Result   map[string]any `json:"result"`
}

// duration is the job's own run time, from its timestamps.
func (j jobWire) duration() (time.Duration, error) {
	a, err := time.Parse(time.RFC3339Nano, j.Started)
	if err != nil {
		return 0, err
	}
	b, err := time.Parse(time.RFC3339Nano, j.Finished)
	if err != nil {
		return 0, err
	}
	return b.Sub(a), nil
}

// awaitJob polls /v1/jobs/{id} until the job is done or failed. A failed
// job is an error.
func (d *daemon) awaitJob(id, op string, timeout time.Duration) (jobWire, error) {
	deadline := time.Now().Add(timeout)
	for {
		blob, _, err := d.get("/v1/jobs/"+id, op)
		if err != nil {
			return jobWire{}, err
		}
		var j jobWire
		if err := decodeJSON(blob, &j, "job"); err != nil {
			return j, err
		}
		switch j.Status {
		case "done":
			return j, nil
		case "failed":
			return j, fmt.Errorf("job %s failed: %s", id, j.Error)
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s still %s after %s", id, j.Status, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// resultNum reads a numeric job-result field (0 when absent).
func resultNum(j jobWire, key string) float64 {
	v, _ := j.Result[key].(float64)
	return v
}

func resultBool(j jobWire, key string) bool {
	v, _ := j.Result[key].(bool)
	return v
}

// decodeJSON is json.Unmarshal with the target named in the error.
func decodeJSON(blob []byte, v any, what string) error {
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}
