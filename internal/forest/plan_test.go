package forest

import (
	"reflect"
	"sync"
	"testing"

	"locality/internal/graph"
	"locality/internal/ids"
	"locality/internal/rng"
	"locality/internal/sim"
)

// runRecorded runs f on g and returns the outputs, the rounds and every
// machine f handed out.
func runRecorded(t *testing.T, g *graph.Graph, engine sim.Engine, f sim.Factory) ([]int, int, []*machine) {
	t.Helper()
	var mu sync.Mutex
	var ms []*machine
	rec := func() sim.Machine {
		m := f()
		mu.Lock()
		ms = append(ms, m.(*machine))
		mu.Unlock()
		return m
	}
	res, err := sim.Run(g, sim.Config{IDs: ids.Sequential(g.N()), Engine: engine, MaxRounds: 100000}, rec)
	if err != nil {
		t.Fatal(err)
	}
	return sim.IntOutputs(res), res.Rounds, ms
}

func TestMachinesShareOneRunPlan(t *testing.T) {
	g := graph.RandomTree(400, 4, rng.New(2))
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		_, _, ms := runRecorded(t, g, engine, NewFactory(Options{Q: 3}))
		for v, m := range ms {
			if m.plan != ms[0].plan || &m.plan.Sched[0] != &ms[0].plan.Sched[0] {
				t.Fatalf("engine %d: machine %d holds its own plan", engine, v)
			}
		}
	}
}

func TestNewMachineRunsGivenPlan(t *testing.T) {
	p := NewPlan(Options{Q: 4, ColorOffset: 2}.Resolve(64))
	m := NewMachine(&p, func(sim.Env) uint64 { return 7 }, func(sim.Env) bool { return true }).(*machine)
	m.Init(sim.Env{N: 64, Degree: 0})
	if m.plan != &p {
		t.Fatal("NewMachine's machine does not hold the given plan")
	}
	if m.id != 7 || !m.active || m.opt.ColorOffset != 2 {
		t.Fatalf("hooks or options not applied: id %d, active %v, offset %d", m.id, m.active, m.opt.ColorOffset)
	}
}

// TestFactoryReusedAcrossSizes runs one factory on two graph sizes in turn
// (and back): each run must hold its own size's plan and give the same
// outputs as a fresh factory, on both engines.
func TestFactoryReusedAcrossSizes(t *testing.T) {
	r := rng.New(5)
	opt := Options{Q: 3}
	small, large := graph.RandomTree(50, 3, r), graph.RandomTree(3000, 3, r)
	shared := NewFactory(opt)
	for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
		for _, g := range []*graph.Graph{small, large, small} {
			got, gotRounds, ms := runRecorded(t, g, engine, shared)
			want, wantRounds, _ := runRecorded(t, g, engine, NewFactory(opt))
			if gotRounds != wantRounds || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d: reused factory (%d rounds) differs from a fresh one (%d rounds)", g.N(), gotRounds, wantRounds)
			}
			if fresh := NewPlan(opt.Resolve(g.N())); !reflect.DeepEqual(*ms[0].plan, fresh) {
				t.Fatalf("n=%d: machine holds plan %+v, want this size's %+v", g.N(), *ms[0].plan, fresh)
			}
		}
	}
}
