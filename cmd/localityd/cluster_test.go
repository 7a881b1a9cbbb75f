package main

// Cluster e2e: the coordinator front-end over real worker handlers, and —
// the tentpole acceptance test — a multi-process run where one worker
// localityd is SIGKILLed mid-sweep and the merged table still comes out
// byte-identical to a single-process run with zero batches lost.
//
// The kill test re-execs this test binary as the worker daemon (TestMain's
// LOCALITYD_E2E_WORKER guard), so the processes under test run the real
// serve path, not a stub. When CLUSTER_RUNREPORT names a path, the
// coordinator's run report for the killed sweep is copied there — CI
// uploads it as the cluster job's artifact.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"locality/internal/cluster"
	"locality/internal/fault"
	"locality/internal/harness"
	"locality/internal/jobs"
	"locality/internal/obs"
	"locality/internal/obs/trace"
	"locality/internal/tenant"
)

func TestMain(m *testing.M) {
	if os.Getenv("LOCALITYD_E2E_WORKER") == "1" {
		runE2EWorker()
		return
	}
	os.Exit(m.Run())
}

// runE2EWorker is the re-exec'd worker daemon: a real worker server on an
// ephemeral port, address announced on stdout, batches paced so a parent
// can land a SIGKILL mid-sweep. It never exits on its own — SIGKILL is the
// test's teardown.
func runE2EWorker() {
	pace := 20 * time.Millisecond
	if ms, err := strconv.Atoi(os.Getenv("LOCALITYD_E2E_PACE_MS")); err == nil && ms > 0 {
		pace = time.Duration(ms) * time.Millisecond
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("e2e worker: listen: %v", err)
	}
	fmt.Printf("LISTENING http://%s\n", ln.Addr())
	os.Stdout.Sync()
	reg := obs.NewRegistry()
	// LOCALITYD_E2E_TRACEDIR turns the worker into a trace-emitting shard:
	// the multi-process trace e2e points every process at one shared
	// artifact directory with distinct proc names.
	var tr *trace.Tracer
	if dir := os.Getenv("LOCALITYD_E2E_TRACEDIR"); dir != "" {
		proc := os.Getenv("LOCALITYD_E2E_TRACEPROC")
		if proc == "" {
			proc = fmt.Sprintf("worker-%d", os.Getpid())
		}
		var err error
		tr, err = trace.Open(trace.Options{Dir: dir, Proc: proc, Metrics: reg})
		if err != nil {
			log.Fatalf("e2e worker: trace: %v", err)
		}
	}
	pool := jobs.New(jobs.Options{
		Workers:       1,
		Metrics:       reg,
		Tracer:        tr,
		CheckpointDir: os.Getenv("LOCALITYD_E2E_CKDIR"),
		BatchHook:     func(string, *harness.Checkpoint) { time.Sleep(pace) },
	})
	s := newServer(pool, 64, 10*time.Second, reg, tr)
	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	log.Fatal(srv.Serve(ln))
}

// directRun renders the single-process ground truth (Workers=1).
func directRun(t *testing.T, experiment string, seed uint64) string {
	t.Helper()
	driver, ok := harness.ByID(experiment)
	if !ok {
		t.Fatalf("unknown experiment %s", experiment)
	}
	var buf bytes.Buffer
	driver(harness.Config{Quick: true, Seed: seed}).Render(&buf)
	return buf.String()
}

// testClusterFrontend stands up a coordinator front-end over the given
// worker URLs and serves its API from an httptest server. opts is the
// front-end pool's configuration (tracer, report dir, tenancy, retention);
// coordinate installs the executor exactly as serve does.
func testClusterFrontend(t *testing.T, opts jobs.Options, workerURLs ...string) (*server, *httptest.Server) {
	t.Helper()
	shards := make([]cluster.Shard, len(workerURLs))
	for i, u := range workerURLs {
		shards[i] = cluster.Shard{Name: fmt.Sprintf("shard%d", i), URL: u}
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	err := coordinate(&opts, cluster.Options{
		Shards:         shards,
		RequestTimeout: 2 * time.Second,
		Retries:        2,
		Backoff:        harness.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 1},
		PollInterval:   15 * time.Millisecond,
		ProbeInterval:  15 * time.Millisecond,
		ProbeThreshold: 2,
		Metrics:        reg,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(jobs.New(opts), 64, 10*time.Second, reg, opts.Tracer)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.drain(ctx)
	})
	return s, ts
}

// sweepJob is a coordinator job snapshot with its audit value decoded.
type sweepJob struct {
	jobs.Job
	Result *cluster.Result `json:"result"`
}

func pollClusterJob(t *testing.T, base, id string) sweepJob {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sj sweepJob
		decode(t, resp, &sj)
		if sj.State.Terminal() {
			return sj
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster job %s not terminal after 60s", id)
	return sweepJob{}
}

// metricValue extracts an unlabeled metric's value from Prometheus text.
func metricValue(t *testing.T, prom, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(prom, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, prom)
	return 0
}

// TestClusterFrontendInProcess pins the full wire path — coordinator API →
// cluster client → real worker handlers → checkpoint harvest → merged
// render — with every shard healthy.
func TestClusterFrontendInProcess(t *testing.T) {
	var workers []string
	for i := 0; i < 3; i++ {
		_, ts := testServer(t, jobs.Options{Workers: 1})
		workers = append(workers, ts.URL)
	}
	_, front := testClusterFrontend(t, jobs.Options{}, workers...)

	resp := submit(t, front.URL, `{"experiment":"E4","quick":true,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var acc struct {
		ID string `json:"id"`
	}
	decode(t, resp, &acc)

	cj := pollClusterJob(t, front.URL, acc.ID)
	if cj.State != jobs.StateSucceeded {
		t.Fatalf("cluster job %s: %s (%s)", acc.ID, cj.State, cj.Error)
	}
	if want := directRun(t, "E4", 7); cj.Output != want {
		t.Errorf("cluster output differs from single-process run:\n--- want ---\n%s--- got ---\n%s", want, cj.Output)
	}
	if cj.Result == nil || cj.Result.Lost != 0 {
		t.Errorf("result %+v, want Lost==0", cj.Result)
	}

	// Rows are coordinator-owned on the front-end.
	resp = submit(t, front.URL, `{"experiment":"E4","quick":true,"seed":7,"rows":{"mod":2,"keep":0}}`)
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != http.StatusBadRequest || er.Reason != "invalid_rows" {
		t.Errorf("rows submission: %d %q, want 400 invalid_rows", resp.StatusCode, er.Reason)
	}
}

// TestClusterKillShardE2E is the acceptance run: three real worker
// localityd processes, one SIGKILLed mid-sweep (victim chosen by a seeded
// fault.ProcPlan), and the coordinator still produces the byte-identical
// table with zero batches lost — with the failover visible on /metrics.
func TestClusterKillShardE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	plan := fault.ProcPlan{Seed: 7, Victims: 1}
	victims := plan.VictimIndices(shards)
	if len(victims) != 1 {
		t.Fatalf("plan selected %v", victims)
	}
	victim := victims[0]
	t.Logf("fault plan: %s -> shard%d", plan, victim)

	procs := make([]*exec.Cmd, shards)
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"LOCALITYD_E2E_WORKER=1",
			"LOCALITYD_E2E_PACE_MS=40",
			"LOCALITYD_E2E_CKDIR="+t.TempDir(),
		)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = cmd
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "LISTENING "); ok {
				urls[i] = u
				break
			}
		}
		if urls[i] == "" {
			t.Fatalf("worker %d never announced its address", i)
		}
		go io.Copy(io.Discard, stdout) // keep the pipe drained
	}
	waitReady := func(u string) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("worker %s never became ready", u)
	}
	for _, u := range urls {
		waitReady(u)
	}

	reportDir := t.TempDir()
	_, front := testClusterFrontend(t, jobs.Options{ReportDir: reportDir}, urls...)

	resp := submit(t, front.URL, `{"experiment":"E4","quick":true,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var acc struct {
		ID string `json:"id"`
	}
	decode(t, resp, &acc)

	// SIGKILL the victim once it has committed KillAfter batches — the
	// death lands mid-sweep, with real uncommitted work left to fail over.
	killed := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(urls[victim] + "/v1/jobs")
			if err != nil {
				killed <- fmt.Errorf("victim unreachable before kill: %v", err)
				return
			}
			var list struct {
				Jobs []jobs.Job `json:"jobs"`
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			_ = json.Unmarshal(body, &list)
			for _, j := range list.Jobs {
				if j.BatchesDone >= plan.KillAfter() {
					killed <- procs[victim].Process.Signal(syscall.SIGKILL)
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		killed <- fmt.Errorf("victim never committed %d batches", plan.KillAfter())
	}()
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	_, _ = procs[victim].Process.Wait()
	t.Logf("killed shard%d mid-sweep", victim)

	cj := pollClusterJob(t, front.URL, acc.ID)
	if cj.State != jobs.StateSucceeded {
		t.Fatalf("cluster job after kill: %s (%s)", cj.State, cj.Error)
	}
	if want := directRun(t, "E4", 7); cj.Output != want {
		t.Errorf("post-kill output differs from single-process run:\n--- want ---\n%s--- got ---\n%s", want, cj.Output)
	}
	if cj.Result == nil {
		t.Fatal("no result on succeeded cluster job")
	}
	if cj.Result.Lost != 0 {
		t.Errorf("lost %d batches", cj.Result.Lost)
	}

	// The coordinator's /metrics must show the failover: the shard marked
	// unhealthy, rows retried or recomputed, and zero rows lost.
	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	prom := string(promBytes)
	if v := metricValue(t, prom, "locality_cluster_rows_lost"); v != 0 {
		t.Errorf("rows_lost metric = %v", v)
	}
	if v := metricValue(t, prom, "locality_cluster_failovers_total"); v < 1 {
		t.Errorf("failovers_total = %v, want >= 1", v)
	}
	victimGauge := fmt.Sprintf(`locality_cluster_shard_healthy{shard="shard%d"} 0`, victim)
	if !strings.Contains(prom, victimGauge) {
		t.Errorf("metrics missing %q:\n%s", victimGauge, prom)
	}
	retried := metricValue(t, prom, "locality_cluster_batches_retried_total")
	recomputed := metricValue(t, prom, "locality_cluster_batches_recomputed_total")
	if retried+recomputed < 1 {
		t.Errorf("retried %v + recomputed %v batches; the victim's work went somewhere", retried, recomputed)
	}

	// The run report is the CI artifact: export it when CI asks.
	report, err := os.ReadFile(filepath.Join(reportDir, acc.ID+".report.jsonl"))
	if err != nil {
		t.Fatalf("run report: %v", err)
	}
	if !bytes.Contains(report, []byte(`"failover"`)) || !bytes.Contains(report, []byte(`"summary"`)) {
		t.Errorf("run report lacks failover/summary lines:\n%s", report)
	}
	if dst := os.Getenv("CLUSTER_RUNREPORT"); dst != "" {
		if err := os.WriteFile(dst, report, 0o644); err != nil {
			t.Fatalf("exporting run report artifact: %v", err)
		}
	}
}

// submitID posts a submission and returns the accepted job's ID.
func submitID(t *testing.T, base, body string) string {
	t.Helper()
	resp := submit(t, base, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: %d", body, resp.StatusCode)
	}
	var acc jobs.SubmitResult
	decode(t, resp, &acc)
	return acc.ID
}

// TestClusterRetention: coordinator jobs are bounded by the pool's
// retention like any other — the oldest terminal sweeps are evicted, so a
// long-lived front-end's job table stops growing at the bound.
func TestClusterRetention(t *testing.T) {
	var workers []string
	for i := 0; i < 2; i++ {
		_, ts := testServer(t, jobs.Options{Workers: 1})
		workers = append(workers, ts.URL)
	}
	_, front := testClusterFrontend(t, jobs.Options{Retention: 2}, workers...)

	var ids []string
	for seed := 1; seed <= 4; seed++ {
		id := submitID(t, front.URL, fmt.Sprintf(`{"experiment":"E2","quick":true,"seed":%d}`, seed))
		if sj := pollClusterJob(t, front.URL, id); sj.State != jobs.StateSucceeded {
			t.Fatalf("sweep %s: %s (%s)", id, sj.State, sj.Error)
		}
		ids = append(ids, id)
	}

	resp, err := http.Get(front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	decode(t, resp, &list)
	if len(list.Jobs) > 2 {
		t.Errorf("listed %d jobs with Retention 2", len(list.Jobs))
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(front.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted %s: %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestClusterTenantForwarding: a keyed submit to the coordinator is
// accounted to its tenant on every shard call, dedups like any pool
// submit, and meets the front-end's tenant quotas.
func TestClusterTenantForwarding(t *testing.T) {
	const key = "alpha-secret-key"
	var mu sync.Mutex
	var shardCalls []string // "METHOD path" of every submit and poll, with the tenant key seen
	var workers []string
	for i := 0; i < 2; i++ {
		s, _ := testServer(t, jobs.Options{Workers: 1})
		h := s.handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost || strings.HasSuffix(r.URL.Path, "/checkpoint") {
				mu.Lock()
				shardCalls = append(shardCalls, r.Method+" "+r.URL.Path+" key="+r.Header.Get(tenant.Header))
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		workers = append(workers, ts.URL)
	}
	// One submit token that does not refill within the test.
	path := filepath.Join(t.TempDir(), "tenants.json")
	cfg := `{"pinned":[{"name":"alpha","key":"` + key + `","limits":{"rate":0.001,"burst":1}}]}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	tcfg, err := loadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	_, front := testClusterFrontend(t, jobs.Options{Tenancy: tcfg, Idempotent: true}, workers...)

	body := `{"experiment":"E2","quick":true,"seed":5}`
	resp := submitKey(t, front.URL, key, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var first jobs.SubmitResult
	decode(t, resp, &first)
	if first.Tenant != "alpha" {
		t.Errorf("admitted as tenant %q, want alpha", first.Tenant)
	}
	if sj := pollClusterJob(t, front.URL, first.ID); sj.State != jobs.StateSucceeded {
		t.Fatalf("sweep: %s (%s)", sj.State, sj.Error)
	}

	mu.Lock()
	calls := append([]string(nil), shardCalls...)
	mu.Unlock()
	var submits, polls int
	for _, c := range calls {
		if !strings.HasSuffix(c, " key="+key) {
			t.Errorf("shard call without the tenant key: %s", c)
		}
		if strings.HasPrefix(c, "POST ") {
			submits++
		} else {
			polls++
		}
	}
	if submits == 0 || polls == 0 {
		t.Errorf("saw %d shard submits and %d polls, want both", submits, polls)
	}

	// A duplicate costs no token and returns the same job.
	resp = submitKey(t, front.URL, key, body)
	var dup jobs.SubmitResult
	decode(t, resp, &dup)
	if resp.StatusCode != http.StatusAccepted || dup.ID != first.ID || !dup.Deduped {
		t.Errorf("duplicate submit: %d %+v, want 202 with %s deduped", resp.StatusCode, dup, first.ID)
	}

	// A new spec finds the bucket empty.
	resp = submitKey(t, front.URL, key, `{"experiment":"E2","quick":true,"seed":6}`)
	var er errorResponse
	decode(t, resp, &er)
	if resp.StatusCode != http.StatusTooManyRequests || er.Reason != "rate_limited" {
		t.Errorf("over-quota submit: %d %q, want 429 rate_limited", resp.StatusCode, er.Reason)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}
