package sim_test

import (
	"testing"

	"locality/internal/graph"
	"locality/internal/sim"
)

// planned reads its plan from the factory's RunPlan and outputs it.
type planned struct {
	plans *sim.RunPlan[int, *int]
	plan  *int
}

func (m *planned) Init(env sim.Env)                              { m.plan = m.plans.Get(env.N) }
func (m *planned) Step(int, []sim.Message) ([]sim.Message, bool) { return nil, true }
func (m *planned) Output() any                                   { return m.plan }

func TestRunPlanBuildsOncePerKey(t *testing.T) {
	builds := 0
	plans := sim.NewRunPlan(func(n int) *int {
		builds++
		return &n
	})
	f := func() sim.Machine { return &planned{plans: plans} }
	for i, tc := range []struct{ n, builds int }{{64, 1}, {64, 1}, {32, 2}, {32, 2}, {64, 3}} {
		res, err := sim.Run(graph.Ring(tc.n), sim.Config{Engine: sim.EngineConcurrent}, f)
		if err != nil {
			t.Fatal(err)
		}
		first := res.Outputs[0].(*int)
		for v, o := range res.Outputs {
			if o.(*int) != first || *first != tc.n {
				t.Fatalf("run %d: node %d holds plan %d at %p, node 0 %d at %p", i, v, *o.(*int), o, *first, first)
			}
		}
		if builds != tc.builds {
			t.Fatalf("run %d (n=%d): %d plan builds, want %d", i, tc.n, builds, tc.builds)
		}
	}
}
