package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"locality/internal/harness"
)

// The suite workload: every experiment driver at quick scale with
// Workers=1, one after another, in process. The kernel, the algorithm
// machines and the harness do all the work; no serving layer runs.

// suiteIDs is every driver, in the order localbench runs them.
var suiteIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
	"A1", "A2", "A3",
}

// warmIDs are the cheapest drivers; the set-up renders them at the digest
// seed, which both warms the process and checks their digests on every run.
var warmIDs = []string{"E4", "E6", "E7", "E8", "E11"}

// digestSeed is the seed the committed table digests were taken at.
const digestSeed = 2016

//go:embed digests.txt
var digestFile string

func driverFor(id string) (func(harness.Config) *harness.Table, bool) {
	if f, ok := harness.ByID(id); ok {
		return f, true
	}
	return harness.ByIDSupplementary(id)
}

// render runs one driver and renders its table exactly as localityd does;
// a panicking driver is returned as an error.
func render(id string, cfg harness.Config) (out string, err error) {
	f, ok := driverFor(id)
	if !ok {
		return "", fmt.Errorf("unknown experiment %s", id)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", id, r)
		}
	}()
	var b bytes.Buffer
	f(cfg).Render(&b)
	return b.String(), nil
}

func quick(seed uint64) harness.Config {
	return harness.Config{Quick: true, Seed: seed, Workers: 1}
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// parseDigests reads "<ID> <sha256>" lines; '#' starts a comment.
func parseDigests(text string) (map[string]string, error) {
	want := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 || len(f[1]) != 64 {
			return nil, fmt.Errorf("digests.txt:%d: want \"<ID> <sha256>\", got %q", n, sc.Text())
		}
		want[f[0]] = f[1]
	}
	return want, nil
}

// checkDigest fails the run when a rendered table's digest differs from
// the committed one.
func checkDigest(res *result, want map[string]string, id, out string) {
	w, ok := want[id]
	switch {
	case !ok:
		res.fail("no committed digest for %s", id)
	case sha(out) != w:
		res.fail("%s table at seed %d has sha256 %s, want %s", id, digestSeed, sha(out), w)
	}
}

// driverRun is one driver's cost within a pass, in suiteIDs order, and
// the process's RSS once it returned.
type driverRun struct {
	dur    time.Duration
	allocs uint64
	rssMB  float64
}

// runPass renders every driver once under cfg, checking each table with
// check, and returns the pass's wall time and per-driver costs.
func runPass(cfg harness.Config, check func(id, out string, err error)) (time.Duration, []driverRun, error) {
	var runs []driverRun
	var m0, m1 runtime.MemStats
	start := time.Now()
	for _, id := range suiteIDs {
		runtime.ReadMemStats(&m0)
		t := time.Now()
		out, err := render(id, cfg)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		rss, rerr := rssMB("self")
		if rerr != nil {
			return 0, nil, rerr
		}
		runs = append(runs, driverRun{dur: d, allocs: m1.Mallocs - m0.Mallocs, rssMB: rss})
		check(id, out, err)
	}
	return time.Since(start), runs, nil
}

func runSuite(e env) (*result, error) {
	res := &result{correct: true}
	want, err := parseDigests(digestFile)
	if err != nil {
		return nil, err
	}

	// Set-up, five times: render the cheap drivers at the digest seed. The
	// median keeps one slow, cold repetition from setting the figure.
	var setups []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		for _, id := range warmIDs {
			out, err := render(id, quick(digestSeed))
			if err != nil {
				return nil, err
			}
			checkDigest(res, want, id, out)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	// Passes: at least one, and another only while it fits the window.
	check := func(id, out string, err error) {
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			res.fail("%v", err)
		case e.seed == digestSeed:
			checkDigest(res, want, id, out)
		}
	}
	var passes, cpus []float64
	var runs [][]driverRun
	start := time.Now()
	for {
		cpu0, err := cpuSeconds("self")
		if err != nil {
			return nil, err
		}
		failed := res.failed
		total, rs, err := runPass(quick(e.seed), check)
		if err != nil {
			return nil, err
		}
		cpu1, err := cpuSeconds("self")
		if err != nil {
			return nil, err
		}
		if res.failed > failed {
			// A pass with a failed driver is a miss: a driver that
			// panicked early must not make the pass look faster.
			passes = append(passes, math.Inf(1))
		} else {
			passes = append(passes, total.Seconds())
		}
		cpus = append(cpus, cpu1-cpu0)
		runs = append(runs, rs)
		if time.Since(start)+total > e.seconds {
			break
		}
	}
	peak, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	var rss []float64
	for _, rs := range runs {
		for _, r := range rs {
			rss = append(rss, r.rssMB)
		}
	}
	// A suite pass is the workload's one operation.
	res.add("setup_s", "s", median(setups))
	res.addQ("p50_ms", "ms", 1e3*median(passes), len(passes))
	res.addQ("p90_ms", "ms", 1e3*quantile(passes, 0.9), len(passes))
	res.add("cpu_ms", "ms", 1e3*median(cpus))
	res.addQ("rss_mb", "MB", median(rss), len(rss))
	res.add("peak_rss_mb", "MB", peak)
	res.add("failed_share", "share", failedShare(res.failed, res.attempted))
	res.addQ("suite_s", "s", median(passes), len(passes))
	if !e.trace {
		return res, nil
	}

	for i, id := range suiteIDs {
		var ds []float64
		for _, rs := range runs {
			ds = append(ds, rs[i].dur.Seconds())
		}
		res.add("harness."+id+"_s", "s", median(ds))
		res.add("harness."+id+"_allocs", "count", float64(runs[0][i].allocs))
	}
	ss := make([]specReq, len(suiteIDs))
	for i, id := range suiteIDs {
		ss[i] = specReq{Experiment: id, Quick: true, Seed: e.seed}
	}
	ob, err := layers(e, res, ss)
	if err != nil {
		return nil, err
	}
	res.add("trace.overhead_share", "share", ob.total.Seconds()/median(passes)-1)
	return res, nil
}
