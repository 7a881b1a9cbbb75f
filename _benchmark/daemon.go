package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A daemon is one spawned localityd process. It listens on a port the
// kernel picks; the address is read back from the daemon's own
// "listening on" log line, so concurrent benchmarks never collide.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *logTail
	done chan struct{} // closed once Wait has returned
}

// daemons tracks every process the benchmark started, so each one is
// stopped and waited for on every exit path.
var daemons struct {
	sync.Mutex
	live []*daemon
}

// spawn starts bin with args plus a kernel-chosen loopback address and
// returns once the daemon has bound its port.
func spawn(bin, name string, args ...string) (*daemon, error) {
	d := &daemon{name: name, log: &logTail{addr: make(chan string, 1)}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The kernel kills the daemon if the benchmark dies without stopping it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	daemons.Lock()
	daemons.live = append(daemons.live, d)
	daemons.Unlock()
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through the log tail
		close(d.done)
	}()
	select {
	case addr := <-d.log.addr:
		d.url = "http://" + addr
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("spawn %s: exited before listening:\n%s", name, d.log.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("spawn %s: no listening line within 30s:\n%s", name, d.log.String())
	}
}

// pid names the daemon's /proc entry.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before ready:\n%s", d.name, d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within 30s", d.name)
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns, and
// waits until the process has ended.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every daemon still running.
func stopAll() {
	daemons.Lock()
	live := daemons.live
	daemons.live = nil
	daemons.Unlock()
	for _, d := range live {
		d.stop()
	}
}

// logTail keeps the last few KiB of a daemon's log for error reports and
// announces the first "listening on <addr>" line.
type logTail struct {
	mu    sync.Mutex
	buf   []byte
	line  []byte
	addr  chan string
	found bool
}

func (l *logTail) Write(p []byte) (int, error) {
	if addr, ok := l.record(p); ok {
		l.addr <- addr // buffered, and sent once
	}
	return len(p), nil
}

// record appends p to the tail and reports the listen address the first
// time a complete line announces it.
func (l *logTail) record(p []byte) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if len(l.buf) > 8<<10 {
		l.buf = l.buf[len(l.buf)-8<<10:]
	}
	if l.found {
		return "", false
	}
	l.line = append(l.line, p...)
	for {
		i := bytes.IndexByte(l.line, '\n')
		if i < 0 {
			return "", false
		}
		line := string(l.line[:i])
		l.line = l.line[i+1:]
		if _, addr, ok := strings.Cut(line, " listening on "); ok {
			l.found = true
			l.line = nil
			return strings.TrimSpace(addr), true
		}
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.buf)
}

// The HTTP client side: submit a spec, read a job.

type specReq struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Seed       uint64 `json:"seed"`
}

type submitResp struct {
	ID      string `json:"id"`
	Deduped bool   `json:"deduped"`
	Cached  bool   `json:"cached"`
}

type jobResp struct {
	State  string `json:"state"`
	Output string `json:"output"`
	Error  string `json:"error"`
	Result *struct {
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	} `json:"result"`
}

// errStatus is a non-2xx answer; a shed (429/503) is one of these.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func doJSON(ctx context.Context, c *http.Client, method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &errStatus{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	return json.Unmarshal(b, out)
}

func submit(ctx context.Context, c *http.Client, base string, s specReq) (submitResp, error) {
	var r submitResp
	err := doJSON(ctx, c, http.MethodPost, base+"/v1/jobs", s, &r)
	return r, err
}

func getJob(ctx context.Context, c *http.Client, base, id string) (jobResp, error) {
	var r jobResp
	err := doJSON(ctx, c, http.MethodGet, base+"/v1/jobs/"+id, nil, &r)
	return r, err
}

// errJobFailed is a job that reached a terminal state other than success.
var errJobFailed = errors.New("job did not succeed")

// await polls GET /v1/jobs/{id} every cadence until the job is terminal.
// The first poll is immediate: a store hit is born succeeded.
func await(ctx context.Context, c *http.Client, base, id string, cadence time.Duration) (jobResp, error) {
	for {
		j, err := getJob(ctx, c, base, id)
		if err != nil {
			return j, err
		}
		switch j.State {
		case "succeeded":
			return j, nil
		case "failed", "cancelled":
			return j, fmt.Errorf("%w: %s %s", errJobFailed, j.State, j.Error)
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-time.After(cadence):
		}
	}
}

// newClient is the load generator's HTTP client: at most conns
// connections, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// tempDir makes a scratch directory under the benchmark's work directory.
func tempDir(work, pattern string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, pattern)
}
