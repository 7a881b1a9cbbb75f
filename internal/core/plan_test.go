package core

import (
	"reflect"
	"sync"
	"testing"

	"locality/internal/forest"
	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// recorder wraps a factory and keeps every machine it hands out; the lock
// lets it serve the concurrent engine.
type recorder struct {
	f  sim.Factory
	mu sync.Mutex
	ms []sim.Machine
}

func (r *recorder) factory() sim.Machine {
	m := r.f()
	r.mu.Lock()
	r.ms = append(r.ms, m)
	r.mu.Unlock()
	return m
}

// planned is what the sharing tests read off a T10 or T11 machine.
func planned(t *testing.T, m sim.Machine) (plan any, sched0 any) {
	t.Helper()
	switch m := m.(type) {
	case *t10:
		return m.plan, &m.plan.fplan.Sched[0]
	case *t11:
		return m.plan, &m.plan.fplan.Sched[0]
	}
	t.Fatalf("unexpected machine %T", m)
	return nil, nil
}

var planFactories = []struct {
	name  string
	make  func() sim.Factory
	fresh func(n int) any // the plan a run on n vertices must hold
}{
	{"T10", func() sim.Factory { return NewT10Factory(T10Options{Delta: 9}) }, func(n int) any {
		p := newT10Plan(n, T10Options{Delta: 9}.withDefaults(n))
		return &p
	}},
	{"T11", func() sim.Factory { return NewT11Factory(T11Options{Delta: 5}) }, func(n int) any {
		p := newT11Plan(n, T11Options{Delta: 5}.withDefaults(n))
		return &p
	}},
}

func runColors(t *testing.T, g *graph.Graph, engine sim.Engine, f sim.Factory) ([]int, int) {
	t.Helper()
	res, err := sim.Run(g, sim.Config{Randomized: true, Seed: 21, Engine: engine, MaxRounds: 1 << 20}, f)
	if err != nil {
		t.Fatal(err)
	}
	return Colors(res.Outputs), res.Rounds
}

func TestMachinesShareOneRunPlan(t *testing.T) {
	g := graph.RandomTree(300, 5, rng.New(4))
	for _, tc := range planFactories {
		for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			rec := &recorder{f: tc.make()}
			runColors(t, g, engine, rec.factory)
			if len(rec.ms) != g.N() {
				t.Fatalf("%s: %d machines for %d vertices", tc.name, len(rec.ms), g.N())
			}
			plan0, sched0 := planned(t, rec.ms[0])
			for v, m := range rec.ms {
				plan, sched := planned(t, m)
				if plan != plan0 || sched != sched0 {
					t.Fatalf("%s engine %d: machine %d holds its own plan", tc.name, engine, v)
				}
			}
		}
	}
}

func TestInnerForestReusesParentPlan(t *testing.T) {
	env := sim.Env{N: 500, MaxDeg: 9, Rand: rng.New(1)}
	for _, tc := range planFactories {
		var inner sim.Machine
		var fplan *forest.Plan
		switch m := tc.make()().(type) {
		case *t10:
			m.Init(env)
			m.startForest()
			inner, fplan = m.inner, &m.plan.fplan
		case *t11:
			m.Init(env)
			m.startForest()
			inner, fplan = m.inner, &m.plan.fplan
		}
		// The forest machine's plan field is unexported; reflection reads
		// the pointer it holds.
		if got := reflect.ValueOf(inner).Elem().FieldByName("plan").Pointer(); got != reflect.ValueOf(fplan).Pointer() {
			t.Errorf("%s: inner forest machine built its own plan", tc.name)
		}
	}
}

// TestFactoryReusedAcrossSizes runs one factory on two graph sizes in turn
// (and back): each run must get its own size's plan and the same outputs
// as a fresh factory, on both engines.
func TestFactoryReusedAcrossSizes(t *testing.T) {
	r := rng.New(6)
	small, large := graph.RandomTree(60, 5, r), graph.RandomTree(2100, 5, r)
	for _, tc := range planFactories {
		shared := tc.make()
		for _, engine := range []sim.Engine{sim.EngineSequential, sim.EngineConcurrent} {
			for _, g := range []*graph.Graph{small, large, small} {
				rec := &recorder{f: shared}
				got, gotRounds := runColors(t, g, engine, rec.factory)
				want, wantRounds := runColors(t, g, engine, tc.make())
				if gotRounds != wantRounds {
					t.Fatalf("%s n=%d: reused factory ran %d rounds, fresh %d", tc.name, g.N(), gotRounds, wantRounds)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d: reused factory's colors differ from a fresh factory's", tc.name, g.N())
				}
				if plan, _ := planned(t, rec.ms[0]); !reflect.DeepEqual(plan, tc.fresh(g.N())) {
					t.Fatalf("%s n=%d: machine does not hold this size's plan", tc.name, g.N())
				}
			}
		}
	}
}
