package jobs

// White-box executor tests: a fake Executor stands in for the cluster
// coordinator, so the pool's side of the contract — write-through, cancel,
// drain, the audit value, the key hand-off — is pinned without a cluster.

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"locality/internal/store"
)

// blockingExecutor runs until its ctx ends, reporting each start on
// started, and returns the ctx's error.
func blockingExecutor(started chan<- string) Executor {
	return func(ctx context.Context, t Task) (Outcome, error) {
		started <- t.ID
		<-ctx.Done()
		return Outcome{Result: json.RawMessage(`{"stopped":true}`)}, ctx.Err()
	}
}

func TestExecutorSuccessWritesThrough(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := make(chan string, 1)
	p := New(Options{Workers: 1, Store: st, Executor: func(ctx context.Context, task Task) (Outcome, error) {
		keys <- task.APIKey
		return Outcome{Output: "merged table\n", Batches: 3, Result: json.RawMessage(`{"lost":0}`)}, nil
	}})
	defer closePoolWB(t, p)

	spec := Spec{Experiment: "E2", Quick: true, Seed: 1}
	res, err := p.SubmitTenant("alpha-secret-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	j := waitStateWB(t, p, res.ID, StateSucceeded)
	if got := <-keys; got != "alpha-secret-key" {
		t.Errorf("executor saw API key %q", got)
	}
	if j.Output != "merged table\n" || j.BatchesDone != 3 {
		t.Errorf("snapshot output %q batches %d", j.Output, j.BatchesDone)
	}
	if string(j.Result) != `{"lost":0}` {
		t.Errorf("snapshot result %s, want the executor's audit value", j.Result)
	}
	raw, _ := json.Marshal(j)
	if !strings.Contains(string(raw), `"result":{"lost":0}`) || strings.Contains(string(raw), "alpha-secret-key") {
		t.Errorf("snapshot JSON %s: want the audit value and no raw key", raw)
	}
	hit, ok := st.Get(spec.IdentityKey())
	if !ok || hit.Output != "merged table\n" || hit.Batches != 3 {
		t.Errorf("store after success: %+v %v", hit, ok)
	}

	// A store hit is born succeeded without the executor and with no audit
	// value; a sharded spec is shed, since only the local sweep selects rows.
	res, err = p.SubmitTenant("", spec)
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := p.Get(res.ID); !res.Cached || j.State != StateSucceeded || j.Result != nil {
		t.Errorf("store hit snapshot %+v", j)
	}
	if _, err := p.Submit(Spec{Experiment: "E2", Quick: true, Seed: 2, Rows: &RowSpec{Mod: 2}}); !errors.Is(err, ErrInvalidRowSpec) {
		t.Errorf("sharded submit: %v, want ErrInvalidRowSpec", err)
	}
}

func TestExecutorCancelRunning(t *testing.T) {
	started := make(chan string, 1)
	p := New(Options{Workers: 1, Executor: blockingExecutor(started)})
	defer closePoolWB(t, p)
	id, err := p.Submit(Spec{Experiment: "E2", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Cancel(id); err != nil {
		t.Fatal(err)
	}
	j := waitStateWB(t, p, id, StateCancelled)
	if j.ErrorKind != "cancelled" || string(j.Result) != `{"stopped":true}` {
		t.Errorf("cancelled snapshot kind %q result %s", j.ErrorKind, j.Result)
	}
}

func TestExecutorCloseDeadlineCancels(t *testing.T) {
	started := make(chan string, 1)
	p := New(Options{Workers: 1, Executor: blockingExecutor(started)})
	id, err := p.Submit(Spec{Experiment: "E2", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); err == nil {
		t.Fatal("Close past the deadline returned nil")
	}
	if j, _ := p.Get(id); j.State != StateCancelled {
		t.Errorf("job after forced drain: %s (%s)", j.State, j.Error)
	}
}

func TestLocalSnapshotHasNoResult(t *testing.T) {
	p := New(Options{Workers: 1})
	defer closePoolWB(t, p)
	id, err := p.Submit(Spec{Experiment: "E8", Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := waitStateWB(t, p, id, StateSucceeded)
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["result"]; ok {
		t.Errorf("local snapshot carries a result key: %s", raw)
	}
}
