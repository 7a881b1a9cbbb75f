// Command benchmark is the repository's benchmark: it runs one named
// workload against the experiment harness (in process) or against spawned
// localityd daemons, checks every output, and prints its metrics as one
// JSON line. See README.md for the workloads, the metrics and how each
// layer metric maps to an end-to-end one.
//
//	go run . --workload suite --seed 1 --seconds 20 --trace 0 --localityd <bin> --src <checkout>
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload gets from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	bin     string // localityd binary
	work    string // scratch directory for daemon state and traces
	nproc   int
}

// result is one run's verdict and metrics.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// problems lists every failed check, printed to stderr.
	problems []string
	// flags records the daemon command lines, for provenance.
	flags map[string][]string
}

type metric struct {
	name, unit string
	value      float64
	// n is the sample count behind a quantile, 0 for other metrics.
	n int
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

// addQ adds a quantile together with the number of samples it was taken
// over.
func (r *result) addQ(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failedShare is (failed+1)/(attempted+1): the add-one estimate of the
// share of operations that failed. It is never 0, so a change from the
// no-failure baseline shows as a ratio, and with no failures it reads
// 1/(attempted+1).
func failedShare(failed, attempted int) float64 {
	return float64(failed+1) / float64(attempted+1)
}

// missMS is the per-request deadline in milliseconds. A request still
// unanswered after it is a timeout, and a quantile that falls on a miss is
// printed as this value.
const missMS = 30000

var workloads = map[string]func(env) (*result, error){
	"suite":   runSuite,
	"serve":   runServe,
	"cluster": runCluster,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: suite, serve or cluster")
		seed     = flag.Uint64("seed", 2016, "workload seed; seed 2016 also checks the committed table digests")
		seconds  = flag.Int("seconds", 20, "measurement window in seconds")
		traceOn  = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer ledger")
		bin      = flag.String("localityd", "", "localityd binary (serve and cluster)")
		src      = flag.String("src", ".", "root of the source tree under test, for provenance")
		work     = flag.String("work", os.TempDir(), "scratch directory for daemon state and traces")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceOn)
		os.Exit(2)
	}
	if *workload != "suite" {
		if _, err := os.Stat(*bin); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -localityd: %v\n", err)
			os.Exit(2)
		}
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	e := env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceOn == 1,
		bin: *bin, work: *work, nproc: runtime.NumCPU(),
	}
	man, err := readManifest(filepath.Join(*src, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	res, err := run(e)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", *workload, p)
	}
	want := man.EndToEnd
	if e.trace {
		want = man.PerLayer
	}
	if err := report(os.Stdout, *workload, e, *src, want, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// manifestMetric is one metric as BENCHMARK.json names it.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest holds BENCHMARK.json's two metric lists. Every workload prints
// every metric of a list: the end-to-end list with --trace 0, the
// per-layer list with --trace 1.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// report prints the detail line, then the result line, which is always
// the last line of standard output. The result line holds exactly the
// metrics of want, each in its manifest unit; a workload that did not
// measure one of them is an error. Every other metric the run measured
// goes to the detail line's ledger, with the provenance and the sample
// count of every quantile.
func report(w io.Writer, workload string, e env, src string, want []manifestMetric, res *result) error {
	samples := map[string]int{}
	measured := map[string]map[string]any{}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) {
			return fmt.Errorf("metric %s is NaN", m.name)
		}
		if math.IsInf(v, 1) {
			// A quantile that lands on a miss reads as the request
			// deadline: the least a missed request is known to cost.
			v = missMS
		}
		measured[m.name] = map[string]any{"value": v, "unit": m.unit}
		if m.n > 0 {
			samples[m.name] = m.n
		}
	}
	metrics := map[string]any{}
	for _, mm := range want {
		m, ok := measured[mm.Name]
		switch {
		case !ok:
			return fmt.Errorf("workload %s does not measure %s", workload, mm.Name)
		case m["unit"] != mm.Unit:
			return fmt.Errorf("metric %s is in %v, BENCHMARK.json says %s", mm.Name, m["unit"], mm.Unit)
		}
		metrics[mm.Name] = m
		delete(measured, mm.Name)
	}
	detail := map[string]any{
		"workload":   workload,
		"trace":      e.trace,
		"provenance": provenance(e, src, res.flags),
		"samples":    samples,
		"ledger":     measured,
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	line, err = json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// provenance records what produced the numbers: the source tree, the
// toolchain and the machine, so a comparison across machines is visible.
func provenance(e env, src string, flags map[string][]string) map[string]any {
	commit := "unknown" // the tree under test need not be a git checkout
	if _, err := os.Stat(filepath.Join(src, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", src, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"commit":        commit,
		"source_sha256": sourceDigest(src),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         e.nproc,
		"cpu":           cpuModel(),
		"seed":          e.seed,
		"seconds":       e.seconds.Seconds(),
		"daemon_flags":  flags,
	}
}

// sourceDigest hashes the Go sources and module files of the tree under
// test (names and contents, in path order). It identifies the code when
// the tree is not a git checkout.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
