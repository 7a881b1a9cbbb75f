package sim

import "sync"

// RunPlan holds a machine's run-global plan: the read-only step layout that
// depends only on run-wide quantities (graph size, degree bound, options),
// never on a node. A factory creates one RunPlan and every machine it makes
// asks it for the plan in Init, so a run builds its plan once and all nodes
// share it. Get locks because EngineConcurrent calls Init from one
// goroutine per node.
//
// The plan is built on the first Get for a key and kept until a Get with a
// different key (the factory reused on another graph) replaces it. Callers
// must treat the returned plan as immutable; P is normally a pointer so
// every node reads the same value.
type RunPlan[K comparable, P any] struct {
	build func(K) P

	mu    sync.Mutex
	built bool
	key   K
	plan  P
}

// NewRunPlan returns a RunPlan whose plans are computed by build.
func NewRunPlan[K comparable, P any](build func(K) P) *RunPlan[K, P] {
	return &RunPlan[K, P]{build: build}
}

// Get returns the plan for key, building it if the held plan is for
// another key or none is held yet.
func (r *RunPlan[K, P]) Get(key K) P {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.built || r.key != key {
		r.plan = r.build(key)
		r.key, r.built = key, true
	}
	return r.plan
}
