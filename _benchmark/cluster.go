package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"locality/internal/obs/trace"
)

// The cluster workload: a coordinator in front of two single-worker shard
// daemons at the default poll interval. One client runs a closed loop of
// sub-second multi-row quick sweeps with unique seeds, so every sweep is
// dispatched, polled and harvested across the shards; only this workload
// runs that path.

const (
	shards       = 2
	clusterPoll  = 5 * time.Millisecond
	clusterWarms = 4 // one warm-up sweep of each kind
	// sweepsPerSecond sizes the loop: a fixed number of sweeps, about the
	// measurement window at the 200 ms median sweep measured on 2 cores,
	// so every run of a seed does the same work.
	sweepsPerSecond = 5
)

// sweepKinds are multi-row quick sweeps that finish in well under a second
// in process.
var sweepKinds = []string{"E2", "E12", "A2", "A3"}

// clusterRun is one cluster's worth of the workload.
type clusterRun struct {
	setupS    float64
	specs     []specReq
	lat       []time.Duration // per sweep; -1 for a miss
	errs      []error
	outs      []string
	start     time.Time
	end       time.Time
	cpuS      float64   // CPU of all three daemons over the loop
	peakMB    float64   // summed over the daemons
	rssMB     []float64 // summed over the daemons, after each sweep
	failovers int
	spans     spanTimes
}

func runCluster(e env) (*result, error) {
	res := &result{correct: true, flags: map[string][]string{}}
	u, err := clusterOnce(e, res, false)
	if err != nil {
		return nil, err
	}
	// The single-process table of every sweep. The traced run renders
	// them one at a time under the layer observer, which also gives each
	// sweep's in-process time.
	var refs []string
	var ob *observed
	if e.trace {
		ob, err = layers(e, res, u.specs)
		if err == nil {
			refs = ob.outs
		}
	} else {
		refs, err = referenceTables(u.specs, e.nproc)
	}
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	u.check(refs)
	account(res, "sweep", u.errs)
	l := missAware(u.lat)
	// A sweep is the workload's one operation.
	p50, p90, cpu := quantile(l.ms, 0.5), quantile(l.ms, 0.9), 1e3*u.cpuS/float64(l.n()-l.misses)
	res.add("setup_s", "s", u.setupS)
	res.addQ("p50_ms", "ms", p50, l.n())
	res.addQ("p90_ms", "ms", p90, l.n())
	res.add("cpu_ms", "ms", cpu)
	res.addQ("rss_mb", "MB", median(u.rssMB), len(u.rssMB))
	res.add("peak_rss_mb", "MB", u.peakMB)
	res.add("failed_share", "share", failedShare(res.failed, res.attempted))
	res.addQ("sweep_p50_ms", "ms", p50, l.n())
	res.addQ("sweep_p90_ms", "ms", p90, l.n())
	res.add("sweep_cpu_ms", "ms", cpu)
	if !e.trace {
		return res, nil
	}

	var over []float64
	for i, d := range u.lat {
		if d >= 0 {
			over = append(over, float64(d-ob.durs[i])/1e6)
		}
	}
	res.addQ("coord.overhead_ms", "ms", median(over), len(over))
	res.addQ("sweep_max_ms", "ms", quantile(l.ms, 1), l.n())

	t, err := clusterOnce(e, res, true)
	if err != nil {
		return nil, err
	}
	trefs, err := referenceTables(t.specs, e.nproc)
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	t.check(trefs)
	account(res, "traced sweep", t.errs)
	from, to := t.start.UnixNano(), t.end.UnixNano()
	for _, name := range []string{"shard.dispatch", "cluster.endgame"} {
		v := selfUS(t.spans.within(name, from, to))
		res.addQ(name+".self_p50_us", "us", median(v), len(v))
	}
	sweeps := float64(len(t.lat))
	res.add("coord.harvest_requests_per_sweep", "count", float64(len(t.spans.within("http.checkpoint", from, to)))/sweeps)
	var busy float64
	for _, d := range durUS(t.spans.within("job.run", from, to)) {
		busy += d / 1e6
	}
	res.add("shard.busy_share", "share", busy/(shards*t.end.Sub(t.start).Seconds()))
	res.add("coord.failovers", "count", float64(u.failovers+t.failovers))
	res.add("trace.overhead_share", "share", t.cpuS/float64(len(t.lat))/(u.cpuS/float64(len(u.lat)))-1)
	return res, nil
}

// check turns every sweep whose merged table differs from the
// single-process table into a miss.
func (r *clusterRun) check(refs []string) {
	for i := range r.lat {
		if r.errs[i] == nil && r.outs[i] != refs[i] {
			r.lat[i] = -1
			r.errs[i] = fmt.Errorf("%w: sweep %s seed %d", errWrongBytes, r.specs[i].Experiment, r.specs[i].Seed)
		}
	}
}

// clusterOnce spawns the cluster (three times, keeping the last, so
// set-up is a median), warms it up with one sweep of each kind, and runs
// the closed loop for the measurement window.
func clusterOnce(e env, res *result, traced bool) (*clusterRun, error) {
	dir, err := tempDir(e.work, "cluster-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	traceArgs := func(proc string) []string {
		if !traced {
			return nil
		}
		return []string{"-trace-dir", filepath.Join(dir, "trace"), "-trace-proc", proc}
	}
	hc := newClient(e.nproc)
	defer hc.CloseIdleConnections()

	var spawns []float64
	var procs []*daemon
	stop := func() {
		for _, d := range procs {
			d.stop()
		}
		procs = nil
	}
	defer stop()
	for k := 0; k < 3; k++ {
		stop()
		t := time.Now()
		var members []string
		for s := 0; s < shards; s++ {
			args := append([]string{"-workers", "1"}, traceArgs(fmt.Sprintf("shard%d", s))...)
			res.flags[fmt.Sprintf("shard%d", s)] = args
			d, err := spawn(e.bin, fmt.Sprintf("shard%d", s), args...)
			if err != nil {
				return nil, err
			}
			procs = append(procs, d)
			members = append(members, fmt.Sprintf("shard%d=%s", s, d.url))
		}
		args := append([]string{"-coordinator", "-shards", strings.Join(members, ",")}, traceArgs("coordinator")...)
		res.flags["coordinator"] = args
		d, err := spawn(e.bin, "coordinator", args...)
		if err != nil {
			return nil, err
		}
		procs = append(procs, d)
		for _, d := range procs {
			if err := d.waitReady(hc); err != nil {
				return nil, err
			}
		}
		spawns = append(spawns, time.Since(t).Seconds())
	}
	coord := procs[shards]

	run := &clusterRun{}
	sweep := func(s specReq) (time.Duration, string, error) {
		ctx, cancel := context.WithTimeout(context.Background(), missMS*time.Millisecond)
		defer cancel()
		t := time.Now()
		sr, err := submit(ctx, hc, coord.url, s)
		if err != nil {
			return -1, "", err
		}
		j, err := await(ctx, hc, coord.url, sr.ID, clusterPoll)
		if err != nil {
			return -1, "", err
		}
		d := time.Since(t)
		if j.Result != nil {
			for _, ev := range j.Result.Events {
				if ev.Kind == "failover" {
					run.failovers++
				}
			}
		}
		return d, j.Output, nil
	}

	warmStart := time.Now()
	for _, s := range specs(e.seed, 3, clusterWarms, sweepKinds) {
		if _, _, err := sweep(s); err != nil {
			return nil, fmt.Errorf("warm-up sweep %s: %w", s.Experiment, err)
		}
	}
	run.setupS = median(spawns) + time.Since(warmStart).Seconds()

	cpu := func() (float64, error) {
		var sum float64
		for _, d := range procs {
			c, err := cpuSeconds(d.pid())
			if err != nil {
				return 0, err
			}
			sum += c
		}
		return sum, nil
	}
	cpu0, err := cpu()
	if err != nil {
		return nil, err
	}
	// Unique seeds: no sweep is answered by a cache or a dedup map.
	run.specs = specs(e.seed, 2, sweepsPerSecond*int(e.seconds.Seconds()), sweepKinds)
	run.start = time.Now()
	for _, s := range run.specs {
		d, out, err := sweep(s)
		run.lat = append(run.lat, d)
		run.outs = append(run.outs, out)
		run.errs = append(run.errs, err)
		var rss float64
		for _, d := range procs {
			r, err := rssMB(d.pid())
			if err != nil {
				return nil, err
			}
			rss += r
		}
		run.rssMB = append(run.rssMB, rss)
	}
	run.end = time.Now()
	cpu1, err := cpu()
	if err != nil {
		return nil, err
	}
	run.cpuS = cpu1 - cpu0
	for _, d := range procs {
		rss, err := peakRSSMB(d.pid())
		if err != nil {
			return nil, err
		}
		run.peakMB += rss
	}
	stop()
	if traced {
		lr, err := trace.Load(filepath.Join(dir, "trace"))
		if err != nil {
			return nil, err
		}
		run.spans = selfTimes(lr.Spans)
	}
	return run, nil
}
