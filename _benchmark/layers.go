package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/harness"
	"locality/internal/ids"
	"locality/internal/jobs"
	"locality/internal/linial"
	"locality/internal/mathx"
	"locality/internal/rng"
	"locality/internal/sim"
	"locality/internal/store"
	"locality/internal/tenant"
)

// The per-layer metrics every workload prints with --trace 1. A workload
// hands over the specs its program computed; layers renders them again in
// process, one after another with Workers=1, under a benchmark-owned
// harness.Observer, then times the codec, store, pool and tenant layers on
// the workload's own tables, and the kernel and plans on fixed inputs.

// observed is one observed, sequential render of a workload's specs.
type observed struct {
	outs   []string
	durs   []time.Duration
	total  time.Duration // sum of durs
	allocs uint64
}

func layers(e env, res *result, ss []specReq) (*observed, error) {
	obs := &simObserver{}
	ob := &observed{outs: make([]string, len(ss)), durs: make([]time.Duration, len(ss))}
	// The largest checkpoint the renders leave: the costliest one a
	// shard or a resumed job moves.
	var big []byte
	var bigCk *harness.Checkpoint
	var m0, m1 runtime.MemStats
	for i, s := range ss {
		var last *harness.Checkpoint
		cfg := quick(s.Seed)
		cfg.Obs = obs
		cfg.OnBatch = func(c *harness.Checkpoint) { last = c }
		runtime.ReadMemStats(&m0)
		t := time.Now()
		out, err := render(s.Experiment, cfg)
		ob.durs[i] = time.Since(t)
		runtime.ReadMemStats(&m1)
		ob.total += ob.durs[i]
		ob.allocs += m1.Mallocs - m0.Mallocs
		if err != nil {
			res.fail("traced render: %v", err)
			continue
		}
		ob.outs[i] = out
		if last == nil {
			continue
		}
		b, err := last.Encode()
		if err != nil {
			return nil, fmt.Errorf("encode %s checkpoint: %w", s.Experiment, err)
		}
		if len(b) > len(big) {
			big, bigCk = b, last
		}
	}
	if bigCk == nil {
		return nil, fmt.Errorf("no render left a checkpoint")
	}

	roundS := float64(obs.roundNanos) / 1e9
	res.add("sim.node_rounds", "count", float64(obs.nodeRounds))
	res.add("sim.messages", "count", float64(obs.messages))
	res.add("sim.round_s", "s", roundS)
	res.add("sim.ns_per_node_round", "ns", float64(obs.roundNanos)/float64(obs.timedNodeRounds))
	res.add("sim.outside_round_s", "s", ob.total.Seconds()-roundS)
	res.add("harness.render_s", "s", ob.total.Seconds())
	res.add("harness.render_allocs", "count", float64(ob.allocs))

	kernelNS, kernelAllocs := kernelCost()
	res.add("kernel.ns_per_node_round", "ns", kernelNS)
	res.add("kernel.allocs_per_round", "count", kernelAllocs)

	// The plans quick E3 builds: Theorem 10 at Δ=36 on its first
	// 1261-vertex tree colors shattered components with a √Δ=6 forest
	// plan over 40-bit IDs, whose arb-Linial schedule runs at A=5.
	const n, idSpace = 1261, 1 << 40
	fopt := forest.Options{Q: 6, SizeBound: mathx.Max(32, 8*mathx.CeilLog2(n+1)), IDSpace: idSpace}.Resolve(n)
	res.add("plan.linial_schedule_us", "us", timeOp(200*time.Millisecond, func() {
		sinkSched = linial.Schedule(idSpace, fopt.A)
	})/1e3)
	res.add("plan.forest_newplan_us", "us", timeOp(200*time.Millisecond, func() {
		sinkPlan = forest.NewPlan(fopt)
	})/1e3)

	res.add("harness.checkpoint_encode_us", "us", timeOp(200*time.Millisecond, func() {
		sinkBytes, _ = bigCk.Encode()
	})/1e3)
	res.add("harness.checkpoint_decode_us", "us", timeOp(200*time.Millisecond, func() {
		sinkCk, _ = harness.DecodeCheckpoint(big)
	})/1e3)
	res.add("harness.checkpoint_bytes", "B", float64(len(big)))
	return ob, servingLayers(e, res, ss, ob.outs)
}

// simObserver is the benchmark's harness.Observer: it counts node-rounds
// and messages, and times the gaps between consecutive rounds of a run.
// The first callback of a run (Round 1) only marks its start: the time
// before it — Init, plan building, instance generation — counts as
// outside rounds.
type simObserver struct {
	mu                   sync.Mutex
	nodeRounds, messages int64
	timedNodeRounds      int64
	roundNanos           int64
	last                 time.Time
}

func (o *simObserver) SimRound(_ string, s sim.RoundStats) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nodeRounds += int64(s.Active)
	o.messages += s.Messages
	if s.Round > 1 {
		o.roundNanos += now.Sub(o.last).Nanoseconds()
		o.timedNodeRounds += int64(s.Active)
	}
	o.last = now
}

func (o *simObserver) BatchDone(string, int, int) {}

// Sinks keep the timed calls from being optimized away.
var (
	sinkSched  []linial.Family
	sinkPlan   forest.Plan
	sinkBytes  []byte
	sinkCk     *harness.Checkpoint
	sinkResult store.Result
	sinkErr    error
)

// servingLayers times the serving layers in process, without HTTP: a
// store holding the workload's tables, a pool answering a stored spec, and
// tenant admission.
func servingLayers(e env, res *result, ss []specReq, tables []string) error {
	dir, err := tempDir(e.work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.spec().IdentityKey()
		st.Put(keys[i], store.Result{Output: tables[i], Batches: 1})
	}
	k := 0
	res.add("store.get_us", "us", timeOp(200*time.Millisecond, func() {
		sinkResult, _ = st.Get(keys[k%len(keys)])
		k++
	})/1e3)
	k = 0
	res.add("store.put_us", "us", timeOp(100*time.Millisecond, func() {
		st.Put(keys[k%len(keys)], store.Result{Output: tables[k%len(keys)], Batches: 1})
		k++
	})/1e3)

	// Retention 1 over two or more specs, submitted in turn: each spec's
	// previous job has left the retention window, so every submit misses
	// the dedup map and is answered by the store, as serve's reads are.
	p := jobs.New(jobs.Options{Workers: 1, Store: st, Idempotent: true, Retention: 1})
	defer p.Close(context.Background())
	k = 0
	res.add("pool.submit_hit_us", "us", timeOp(200*time.Millisecond, func() {
		s := ss[k%len(ss)]
		k++
		id, err := p.Submit(s.spec())
		if err != nil {
			sinkErr = err
			return
		}
		if j, _ := p.Get(id); j.State != jobs.StateSucceeded {
			sinkErr = fmt.Errorf("stored spec %s seed %d not answered at submit (%s)", s.Experiment, s.Seed, j.State)
		}
	})/1e3)
	if sinkErr != nil {
		return sinkErr
	}

	reg := tenant.NewRegistry(tenant.Config{Pinned: []tenant.Pinned{{
		Name: "bench", Key: "bench-key", Limits: tenant.Limits{Rate: 1e9, Burst: 1 << 20},
	}}})
	tn, err := reg.Lookup("bench-key")
	if err != nil {
		return err
	}
	var now int64
	res.add("tenant.admit_ns", "ns", timeOp(100*time.Millisecond, func() {
		now += 1000
		sinkErr = reg.Admit(tn, now)
	}))
	return sinkErr
}

// kernelCost times sim.Run of the Linial machine on a fixed 4096-vertex
// tree of maximum degree 8, reduced to Δ+1 colors by the class sweep, and
// returns nanoseconds per node-round and allocations per round.
func kernelCost() (nsPerNodeRound, allocsPerRound float64) {
	r := rng.New(1)
	g := graph.RandomTree(4096, 8, r)
	cfg := sim.Config{IDs: ids.Shuffled(4096, r)}
	f := linial.NewFactory(linial.Options{InitialPalette: 4096, Delta: 8, Target: 9})
	var nodeRounds, rounds int64
	counted := cfg
	counted.OnRoundStats = func(s sim.RoundStats) {
		nodeRounds += int64(s.Active)
		rounds++
	}
	run := func(c sim.Config) {
		if _, err := sim.Run(g, c, f); err != nil {
			panic(fmt.Sprintf("kernel benchmark run: %v", err)) // a fixed input cannot fail
		}
	}
	run(counted)
	ns := timeOp(300*time.Millisecond, func() { run(cfg) })
	const reps = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		run(cfg)
	}
	runtime.ReadMemStats(&m1)
	return ns / float64(nodeRounds), float64(m1.Mallocs-m0.Mallocs) / float64(reps*rounds)
}
