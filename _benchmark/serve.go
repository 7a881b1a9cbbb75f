package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"locality/internal/jobs"
	"locality/internal/obs/trace"
	"locality/internal/rng"
)

// The serve workload: one localityd with a result store, checkpoints and a
// job retention smaller than the read working set. A fill computes the
// working set during set-up; then two open-loop phases take turns: reads
// resubmit specs drawn from the working set (most miss the dedup map and
// are answered by store.Get), writes submit unique specs that go through
// the queue, compute and store write-through.

const (
	readSet   = 512 // distinct specs in the read working set
	retention = 64  // terminal jobs the daemon keeps, well under readSet
	readRPS   = 600.0
	writeRPS  = 40.0 // about a third of the ~125 writes/s two cores sustain
	// readShare of the window goes to reads, the rest to writes, which
	// need the longer phase for as many samples.
	readShare = 0.4
	// rounds splits each phase into slices run alternately (read, write,
	// read, ...). On a shared host the hypervisor steals CPU in bursts,
	// and a stolen millisecond lands on a request's latency whole; the
	// latency figures are taken over the quarter of the slices that lost
	// the least CPU to steal (see phase.calm). Four write slices hold 120
	// requests, enough for a p90 with 12 beyond it. Steal is not charged
	// to the server's CPU time, so CPU figures take every slice.
	rounds     = 16
	servePoll  = 2 * time.Millisecond
	warmupTime = time.Second
)

// serveKinds are short quick experiments: a write costs milliseconds of
// compute, so the serving layers, not the kernel, dominate.
var serveKinds = []string{"E4", "E6", "E7", "E8", "E11"}

// specs derives n distinct quick specs from the workload seed; offset
// keeps the read and write sets disjoint.
func specs(seed uint64, offset, n int, kinds []string) []specReq {
	base := rng.Mix64(seed, uint64(offset))
	out := make([]specReq, n)
	for i := range out {
		out[i] = specReq{Experiment: kinds[i%len(kinds)], Quick: true, Seed: base + uint64(i)}
	}
	return out
}

// parallelFor calls f(i) for every i in [0, n) on workers goroutines and
// returns once all calls have.
func parallelFor(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// referenceTables renders every spec in process, on workers goroutines.
func referenceTables(ss []specReq, workers int) ([]string, error) {
	outs := make([]string, len(ss))
	errs := make([]error, len(ss))
	parallelFor(len(ss), workers, func(i int) {
		outs[i], errs[i] = render(ss[i].Experiment, quick(ss[i].Seed))
	})
	return outs, errors.Join(errs...)
}

// loadResult is one slice of a load phase as the client saw it. lat[i]
// is request i's latency from its due time, or -1 for a miss.
type loadResult struct {
	lat    []time.Duration
	lateMS []float64
	errs   []error
	start  time.Time
	end    time.Time
	cpuS   float64 // server CPU seconds spent in the slice
	steal  float64 // share of the machine's CPU time stolen in the slice
	rssMB  float64 // server RSS at the end of the slice
}

// openLoop sends n requests due at a fixed rate, from conns goroutines
// each holding at most one request in flight. A request is timed from the
// moment it was due, so a stall also charges the requests queued behind
// it.
func openLoop(rate float64, dur time.Duration, conns int, op func(i int) error) *loadResult {
	n := int(rate * dur.Seconds())
	lr := &loadResult{lat: make([]time.Duration, n), lateMS: make([]float64, n), errs: make([]error, n)}
	lr.start = time.Now().Add(5 * time.Millisecond)
	parallelFor(n, conns, func(i int) {
		due := lr.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		sent := time.Now()
		err := op(i)
		lr.lateMS[i] = float64(sent.Sub(due)) / 1e6
		lr.errs[i] = err
		if err != nil {
			lr.lat[i] = -1
		} else {
			lr.lat[i] = time.Since(due)
		}
	})
	lr.end = time.Now()
	return lr
}

// phase is one load phase, run as slices interleaved with the other.
type phase []*loadResult

// lat returns every request's latency, slice after slice.
func (p phase) lat() []time.Duration {
	var out []time.Duration
	for _, s := range p {
		out = append(out, s.lat...)
	}
	return out
}

func (p phase) lateMS() []float64 {
	var out []float64
	for _, s := range p {
		out = append(out, s.lateMS...)
	}
	return out
}

// calm returns the quarter of the slices (at least one) that lost the
// least CPU time to host steal, in run order. Which slices are calm depends only on the
// host, not on the requests' latencies.
func (p phase) calm() phase {
	idx := make([]int, len(p))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p[idx[a]].steal < p[idx[b]].steal })
	keep := idx[:(len(p)+3)/4]
	sort.Ints(keep)
	out := make(phase, len(keep))
	for i, k := range keep {
		out[i] = p[k]
	}
	return out
}

// cpuPerRequest is the server CPU per completed request, in milliseconds.
func (p phase) cpuPerRequest() float64 {
	var cpu float64
	done := 0
	for _, s := range p {
		cpu += s.cpuS
		for _, d := range s.lat {
			if d >= 0 {
				done++
			}
		}
	}
	return 1e3 * cpu / float64(done)
}

// stealShare is the mean steal share over the slices.
func (p phase) stealShare() float64 {
	var sum float64
	for _, s := range p {
		sum += s.steal
	}
	return sum / float64(len(p))
}

// spanSelfUS returns the self times of the spans of one name that started
// within the phase's slices.
func (p phase) spanSelfUS(st spanTimes, name string) []float64 {
	var out []float64
	for _, s := range p {
		out = append(out, selfUS(st.within(name, s.start.UnixNano(), s.end.UnixNano()))...)
	}
	return out
}

// serveRun is one daemon's worth of the serve workload.
type serveRun struct {
	setupS               float64
	read, write          phase
	peakMB               float64
	writeSpecs           []specReq
	readHits, readDedups int64
	evictedRetries       int64
	spans                spanTimes
}

func runServe(e env) (*result, error) {
	res := &result{correct: true, flags: map[string][]string{}}
	readSpecs := specs(e.seed, 0, readSet, serveKinds)
	refs, err := referenceTables(readSpecs, e.nproc)
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	u, err := serveOnce(e, res, readSpecs, refs, false)
	if err != nil {
		return nil, err
	}
	rl, wl := missAware(u.read.lat()), missAware(u.write.lat())
	cr, cw := missAware(u.read.calm().lat()), missAware(u.write.calm().lat())
	rp50, rp90 := quantile(cr.ms, 0.5), quantile(cr.ms, 0.9)
	wp50, wp90 := quantile(cw.ms, 0.5), quantile(cw.ms, 0.9)
	rcpu, wcpu := u.read.cpuPerRequest(), u.write.cpuPerRequest()
	// Reads and writes are the workload's two operations; each counts
	// equally in the geometric mean, whatever its rate.
	res.add("setup_s", "s", u.setupS)
	res.addQ("p50_ms", "ms", geomean(rp50, wp50), cr.n()+cw.n())
	res.addQ("p90_ms", "ms", geomean(rp90, wp90), cr.n()+cw.n())
	res.add("cpu_ms", "ms", geomean(rcpu, wcpu))
	var rss []float64
	for _, sl := range append(append(phase{}, u.read...), u.write...) {
		rss = append(rss, sl.rssMB)
	}
	res.addQ("rss_mb", "MB", median(rss), len(rss))
	res.add("peak_rss_mb", "MB", u.peakMB)
	res.add("failed_share", "share", failedShare(res.failed, res.attempted))
	res.addQ("read_p50_ms", "ms", rp50, cr.n())
	res.addQ("read_p90_ms", "ms", rp90, cr.n())
	res.addQ("write_p50_ms", "ms", wp50, cw.n())
	res.addQ("write_p90_ms", "ms", wp90, cw.n())
	res.add("read_cpu_ms", "ms", rcpu)
	res.add("write_cpu_ms", "ms", wcpu)
	res.add("serve.steal_share", "share", (u.read.stealShare()+u.write.stealShare())/2)
	if !e.trace {
		return res, nil
	}
	t, err := serveOnce(e, res, readSpecs, refs, true)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"http.submit", "http.get", "pool.admit", "store.get"} {
		v := t.read.spanSelfUS(t.spans, name)
		res.addQ(name+".self_p50_us", "us", median(v), len(v))
	}
	qw := t.write.spanSelfUS(t.spans, "queue.wait")
	res.addQ("queue.wait.self_p50_us", "us", quantile(qw, 0.5), len(qw))
	res.addQ("queue.wait.self_p90_us", "us", quantile(qw, 0.9), len(qw))
	for _, name := range []string{"job.run", "batch.commit", "store.put"} {
		v := t.write.spanSelfUS(t.spans, name)
		res.addQ(name+".self_p50_us", "us", median(v), len(v))
	}
	// The writes are what the daemon computed in the untraced run.
	if _, err := layers(e, res, u.writeSpecs); err != nil {
		return nil, err
	}
	submits := float64(rl.n())
	res.add("serve.read_submits", "count", submits)
	res.add("serve.store_hit_share", "share", float64(u.readHits)/submits)
	res.add("serve.dedup_share", "share", float64(u.readDedups)/submits)
	res.add("serve.evicted_retries", "count", float64(u.evictedRetries))
	late := append(u.read.lateMS(), u.write.lateMS()...)
	res.addQ("gen.late_ms", "ms", quantile(late, 0.9), len(late))
	res.addQ("read_p99_ms", "ms", quantile(rl.ms, 0.99), rl.n())
	res.addQ("write_p99_ms", "ms", quantile(wl.ms, 0.99), wl.n())
	perReq := func(r *serveRun) float64 {
		return append(append(phase{}, r.read...), r.write...).cpuPerRequest()
	}
	res.add("trace.overhead_share", "share", perReq(t)/perReq(u)-1)
	return res, nil
}

// serveOnce spawns the daemon (three times, keeping the last, so set-up
// is a median), fills the working set, warms up, runs the read and write
// phases, then checks every output.
func serveOnce(e env, res *result, readSpecs []specReq, refs []string, traced bool) (*serveRun, error) {
	dir, err := tempDir(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{
		"-workers", strconv.Itoa(e.nproc),
		"-store-dir", filepath.Join(dir, "store"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-retention", strconv.Itoa(retention),
	}
	if traced {
		args = append(args, "-trace-dir", filepath.Join(dir, "trace"))
	}
	res.flags["localityd"] = args
	hc := newClient(e.nproc)
	defer hc.CloseIdleConnections()
	run := &serveRun{}

	var spawns []float64
	var d *daemon
	for k := 0; k < 3; k++ {
		if d != nil {
			d.stop()
		}
		t := time.Now()
		if d, err = spawn(e.bin, "localityd", args...); err != nil {
			return nil, err
		}
		if err := d.waitReady(hc); err != nil {
			return nil, err
		}
		spawns = append(spawns, time.Since(t).Seconds())
	}
	defer d.stop()

	// Fill: compute the working set through the daemon, nproc at a time.
	fillStart := time.Now()
	fill := make([]error, len(readSpecs))
	parallelFor(len(readSpecs), e.nproc, func(i int) {
		fill[i] = run.readOp(hc, d.url, readSpecs[i], refs[i])
	})
	if err := errors.Join(fill...); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	pick := rng.New(rng.Mix64(e.seed, 1))
	draws := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = pick.Intn(len(readSpecs))
		}
		return out
	}
	warm := draws(int(readRPS * warmupTime.Seconds()))
	openLoop(readRPS, warmupTime, e.nproc, func(i int) error {
		return run.readOp(hc, d.url, readSpecs[warm[i]], refs[warm[i]])
	})
	run.setupS = median(spawns) + time.Since(fillStart).Seconds()
	run.readHits, run.readDedups, run.evictedRetries = 0, 0, 0

	readSlice := time.Duration(readShare * float64(e.seconds) / rounds)
	writeSlice := time.Duration((1 - readShare) * float64(e.seconds) / rounds)
	perSlice := int(writeRPS * writeSlice.Seconds())
	writeSpecs := specs(e.seed, 1, rounds*perSlice, serveKinds)
	run.writeSpecs = writeSpecs
	outs := make([]string, len(writeSpecs))
	for k := 0; k < rounds; k++ {
		reads := draws(int(readRPS * readSlice.Seconds()))
		sl, err := measured(d.pid(), func() *loadResult {
			return openLoop(readRPS, readSlice, e.nproc, func(i int) error {
				return run.readOp(hc, d.url, readSpecs[reads[i]], refs[reads[i]])
			})
		})
		if err != nil {
			return nil, err
		}
		run.read = append(run.read, sl)
		ws, wo := writeSpecs[k*perSlice:], outs[k*perSlice:]
		sl, err = measured(d.pid(), func() *loadResult {
			return openLoop(writeRPS, writeSlice, e.nproc, func(i int) error {
				ctx, cancel := context.WithTimeout(context.Background(), missMS*time.Millisecond)
				defer cancel()
				sr, err := submit(ctx, hc, d.url, ws[i])
				if err != nil {
					return err
				}
				j, err := await(ctx, hc, d.url, sr.ID, servePoll)
				wo[i] = j.Output
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		run.write = append(run.write, sl)
	}
	if run.peakMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	d.stop()

	// Writes are checked outside the timed window: a wrong table turns
	// its request into a miss.
	wrefs, err := referenceTables(writeSpecs, e.nproc)
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	for k, sl := range run.write {
		for i := range sl.lat {
			w := k*perSlice + i
			if sl.lat[i] >= 0 && outs[w] != wrefs[w] {
				sl.lat[i] = -1
				sl.errs[i] = fmt.Errorf("%w: write %s seed %d", errWrongBytes, writeSpecs[w].Experiment, writeSpecs[w].Seed)
			}
		}
	}
	for k := range run.read {
		account(res, "read", run.read[k].errs)
		account(res, "write", run.write[k].errs)
	}
	if traced {
		lr, err := trace.Load(filepath.Join(dir, "trace"))
		if err != nil {
			return nil, err
		}
		run.spans = selfTimes(lr.Spans)
	}
	return run, nil
}

// measured runs one slice and records the server's CPU time and the
// machine's steal share over it, and the server's RSS at its end.
func measured(pid string, slice func() *loadResult) (*loadResult, error) {
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	t0, s0, err := machineTicks()
	if err != nil {
		return nil, err
	}
	sl := slice()
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	t1, s1, err := machineTicks()
	if err != nil {
		return nil, err
	}
	sl.cpuS = cpu1 - cpu0
	if sl.rssMB, err = rssMB(pid); err != nil {
		return nil, err
	}
	if t1 > t0 {
		sl.steal = float64(s1-s0) / float64(t1-t0)
	}
	return sl, nil
}

var errWrongBytes = errors.New("wrong bytes")

// account adds a phase's requests to the run's totals. A wrong table is a
// correctness failure; a shed, error or timeout is a failed request.
func account(res *result, phase string, errs []error) {
	for _, err := range errs {
		res.attempted++
		if err == nil {
			continue
		}
		res.failed++
		if errors.Is(err, errWrongBytes) {
			res.fail("%s: %v", phase, err)
		} else if res.failed <= 5 {
			res.problems = append(res.problems, fmt.Sprintf("%s request failed: %v", phase, err))
		}
	}
}

// readOp resubmits a working-set spec and checks the served table. If the
// job the dedup map answered with was evicted by retention before the
// poll reached it, the spec is resubmitted once; the store then serves it.
func (r *serveRun) readOp(hc *http.Client, base string, s specReq, ref string) error {
	ctx, cancel := context.WithTimeout(context.Background(), missMS*time.Millisecond)
	defer cancel()
	for attempt := 0; ; attempt++ {
		sr, err := submit(ctx, hc, base, s)
		if err != nil {
			return err
		}
		if sr.Cached {
			atomic.AddInt64(&r.readHits, 1)
		}
		if sr.Deduped {
			atomic.AddInt64(&r.readDedups, 1)
		}
		j, err := await(ctx, hc, base, sr.ID, servePoll)
		var se *errStatus
		if attempt == 0 && sr.Deduped && errors.As(err, &se) && se.code == http.StatusNotFound {
			atomic.AddInt64(&r.evictedRetries, 1)
			continue
		}
		if err != nil {
			return err
		}
		if j.Output != ref {
			return fmt.Errorf("%w: read %s seed %d", errWrongBytes, s.Experiment, s.Seed)
		}
		return nil
	}
}

func (s specReq) spec() jobs.Spec {
	return jobs.Spec{Experiment: s.Experiment, Quick: s.Quick, Seed: s.Seed}
}
