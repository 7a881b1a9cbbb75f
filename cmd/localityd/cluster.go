// Coordinator mode: -coordinator turns this binary into a cluster
// front-end. It is the same server and jobs.Pool as a worker; only the
// pool's executor differs. Each job becomes a sharded sweep across the
// static worker membership (internal/cluster): row batches are fanned out
// by residue class, partial checkpoints are harvested every poll, dead
// shards fail over to survivors, and the final table is rendered by one
// deterministic local replay of the merged checkpoint — byte-identical to
// a single-process run, whatever subset of the cluster survived.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"

	"locality/internal/cluster"
	"locality/internal/jobs"
	"locality/internal/obs"
	"locality/internal/obs/trace"
)

// membership resolves the static worker set from -shards / -membership-file
// (exactly one must be given).
func membership(shardsFlag, membershipFile string) ([]cluster.Shard, error) {
	switch {
	case shardsFlag != "" && membershipFile != "":
		return nil, fmt.Errorf("localityd: -shards and -membership-file are mutually exclusive")
	case shardsFlag != "":
		return cluster.ParseShards(shardsFlag)
	case membershipFile != "":
		return cluster.LoadShards(membershipFile)
	default:
		return nil, fmt.Errorf("localityd: -coordinator requires -shards or -membership-file")
	}
}

// coordinate turns opts into a coordinator front-end's pool: a Coordinator
// built from co becomes the executor, so each job runs as one sharded
// sweep. The pool gets one worker, because a Coordinator is not safe for
// concurrent Runs. opts.Tracer, ReportDir and ReportMaxFiles must be final
// before the call.
func coordinate(opts *jobs.Options, co cluster.Options) error {
	tr := opts.Tracer
	// sweep is the in-flight sweep's span. The coordinator carries no
	// tracer (obsinert) and reports its timing through OnSpan; each event
	// becomes a span under the sweep, or its own trace with none in flight.
	var sweep atomic.Pointer[trace.Span]
	co.OnSpan = func(e cluster.SpanEvent) {
		attrs := e.Attrs
		if e.Shard != "" {
			attrs = append([]string{"shard", e.Shard}, attrs...)
		}
		tr.Emit(sweep.Load().Context(), e.Name, e.StartUnixNanos, e.EndUnixNanos, attrs...)
	}
	coord, err := cluster.New(co)
	if err != nil {
		return err
	}
	reportDir, reportMaxFiles := opts.ReportDir, opts.ReportMaxFiles
	opts.Workers = 1
	opts.Executor = func(ctx context.Context, t jobs.Task) (jobs.Outcome, error) {
		// The sweep span parents everything this job does cluster-wide: the
		// coordinator's SpanEvents and — through the trace header riding the
		// dispatch context — every shard-side route and job span, so one
		// multi-process tree assembles per sweep.
		sp := tr.Start(t.Root, "cluster.sweep", "experiment", t.Spec.Experiment, "job", t.ID)
		defer sp.End()
		sweep.Store(sp)
		defer sweep.Store(nil)
		// The submitter's API key rides the context into every shard call,
		// so workers account the sweep's row batches to the right tenant.
		ctx = cluster.WithTraceHeader(cluster.WithTenant(ctx, t.APIKey), sp.Context().String())
		res, err := coord.Run(ctx, t.Spec)
		if res == nil {
			return jobs.Outcome{}, err
		}
		writeReport(reportDir, reportMaxFiles, t, res, err, ctx.Err() != nil)
		audit, _ := json.Marshal(res)
		return jobs.Outcome{Output: res.Output, Batches: res.TotalBatches, Result: audit}, err
	}
	return nil
}

// writeReport persists a sweep's audit trail as <id>.report.jsonl: one line
// per failover event, then a summary line with the batch accounting. Like
// worker run reports, report I/O failures never fail the job.
func writeReport(dir string, maxFiles int, t jobs.Task, res *cluster.Result, runErr error, cancelled bool) {
	if dir == "" {
		return
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".report.jsonl"))
	if err != nil {
		log.Printf("localityd: cluster report: %v", err)
		return
	}
	defer f.Close()
	state, errText := jobs.StateSucceeded, ""
	if runErr != nil {
		state, errText = jobs.StateFailed, runErr.Error()
		if cancelled {
			state = jobs.StateCancelled
		}
	}
	enc := json.NewEncoder(f)
	for _, e := range res.Events {
		_ = enc.Encode(map[string]any{"kind": "event", "event": e})
	}
	_ = enc.Encode(map[string]any{
		"kind":          "summary",
		"id":            t.ID,
		"experiment":    t.Spec.Experiment,
		"state":         state,
		"error":         errText,
		"total_batches": res.TotalBatches,
		"adopted":       res.Adopted,
		"retried":       res.Retried,
		"recomputed":    res.Recomputed,
		"lost":          res.Lost,
	})
	obs.PruneDir(dir, "*.report.jsonl", maxFiles)
}
