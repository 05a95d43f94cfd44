package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
)

// Options configure a Scheduler.
type Options struct {
	// Workers bounds the number of concurrently executing units.
	// Values < 1 default to GOMAXPROCS.
	Workers int
	// Retries is how many extra attempts a failed unit gets before its
	// error aborts the run.
	Retries int
	// Timeout is the per-attempt wall-clock budget; 0 means none.
	//
	// Abandonment contract: the harness RunFunc signature carries no
	// context, so a timed-out attempt's goroutine is abandoned, not
	// interrupted. The abandoned goroutine keeps running to completion
	// in the background and its result is discarded — it is never
	// journaled, never written into the ResultSet, and never counted in
	// Stats, so a late finisher cannot corrupt a run that already moved
	// on (or returned). The worker that launched it is released
	// immediately (the handoff channel is buffered), so abandoned
	// attempts cannot deadlock or shrink the pool. Runners should be
	// side-effect free on cancellation; a runner that blocks forever
	// leaks its goroutine until process exit.
	Timeout time.Duration
	// Controller, when set, replaces the fixed rows x Replicates budget
	// with controller-driven adaptive replication: each cell grows one
	// batch at a time until the controller's stopping rule is satisfied.
	// Without one, the same loop runs a constant controller that targets
	// Design.Replicates for every cell. See the Controller interface;
	// internal/adaptive implements it.
	Controller Controller
	// Store, when set, persists every completed unit and warm-starts
	// from units already present. Any runstore.Store backend works: the
	// single-file JSONL journal, the sharded directory store
	// (internal/runstore/shardstore), or a future database backend. The
	// caller keeps ownership (and must Close it).
	Store runstore.Store
	// JournalDir, when Store is nil, makes the scheduler open (and
	// close) a per-experiment store under JournalDir for each Execute
	// call: a plain journal at <JournalDir>/<experiment>.jsonl, or — with
	// Shards > 0 — this process's shard of a sharded directory store.
	JournalDir string
	// OpenStore, when set alongside JournalDir, replaces the default
	// per-experiment journal with another Store backend (e.g.
	// archivestore.OpenDir for block-indexed archives). The scheduler's
	// execution semantics — warm-start replay, per-unit journaling,
	// deterministic ResultSet assembly — are identical across backends;
	// only the file behind them changes. Incompatible with sharded
	// execution, whose shard files are journals by construction.
	OpenStore func(dir, experiment string) (runstore.Store, error)
	// Shards, when > 0, partitions the design's rows across Shards
	// cooperating scheduler processes by assignment hash
	// (runstore.ShardIndex): this scheduler executes only the rows owned
	// by shard Shard and skips the rest, so N workers given the same
	// experiment and the same Shards cover the design disjointly and
	// exhaustively. Sharded execution requires a store (completed work
	// would otherwise be unreachable by the merge step) and a fixed
	// replication budget (no Controller). Rows owned by other shards
	// appear in the ResultSet with only the replicates the store already
	// holds — usually none during a worker run; run the merged journal
	// through an unsharded scheduler for the complete artifact.
	Shards int
	// Shard is this process's shard index in [0, Shards).
	Shard int
	// Metrics is the registry the scheduler's instruments register in;
	// nil means the process-wide obs.Default(). Tests pass a private
	// registry to assert exact counts in isolation.
	Metrics *obs.Registry
}

// Stats counts what one Execute call did.
type Stats struct {
	// Units is the number of completed units, Executed + Replayed. On
	// an unsharded fixed-budget run it is rows x replicates.
	Units    int
	Executed int // units run live
	Replayed int // units restored from the journal without execution
	Retried  int // failed attempts that were retried
	Skipped  int // units owned by other shards of a sharded run
	// FixedBudget is what the run would have cost without a controller:
	// rows x Design.Replicates. Equal to Units on fixed-budget runs; the
	// budget report compares Units against it on adaptive ones.
	FixedBudget int
}

// Scheduler executes experiments concurrently. It is safe for use from
// multiple goroutines; LastStats reports the most recent Execute.
type Scheduler struct {
	opts      Options
	reg       *obs.Registry
	met       *schedMetrics // nil disables instrumentation (benchmark baseline)
	mu        sync.Mutex
	last      Stats
	lastCells []harness.CellStats
}

// New returns a Scheduler with the given options.
func New(opts Options) *Scheduler {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	return &Scheduler{opts: opts, reg: reg, met: newSchedMetrics(reg)}
}

// MetricsSnapshot returns a point-in-time snapshot of the registry the
// scheduler's instruments live in (Options.Metrics or the process
// default).
func (s *Scheduler) MetricsSnapshot() obs.Snapshot { return s.reg.Snapshot() }

// LastStats returns the stats of the most recently completed Execute.
func (s *Scheduler) LastStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// TakeCellStats returns the per-cell replicate spend of the most recent
// Execute and clears it. It is nil unless that run was driven by an
// adaptive Controller — a fixed-budget run spends uniformly, so there is
// no per-cell budget story to tell. Clearing means a caller reporting
// after each of several driver invocations (the perfeval run loop)
// never re-attributes one experiment's budget to a driver that executed
// no harness experiment at all.
func (s *Scheduler) TakeCellStats() []harness.CellStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cells := s.lastCells
	s.lastCells = nil
	return cells
}

// Execute implements harness.Executor: it validates the experiment,
// replays journaled units, schedules the rest onto the worker pool, and
// assembles the ResultSet in design order — byte-identical to what the
// sequential executor produces for the same runner outputs, regardless
// of completion order.
//
// Cancellation: once ctx is done the scheduler stops feeding work,
// lets in-flight units finish (journaling each as it completes — a
// canceled run's journal is always valid and warm-startable), waits for
// every worker to exit, and returns the context error. Units already
// dispatched are never torn mid-append; units never dispatched are
// simply absent from the journal, exactly what a resume re-executes.
func (s *Scheduler) Execute(ctx context.Context, e *harness.Experiment) (*harness.ResultSet, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	sharded := s.opts.Shards > 0
	if sharded {
		switch {
		case s.opts.Shard < 0 || s.opts.Shard >= s.opts.Shards:
			return nil, fmt.Errorf("sched: shard %d out of range [0,%d)", s.opts.Shard, s.opts.Shards)
		case s.opts.Store == nil && s.opts.JournalDir == "":
			return nil, fmt.Errorf("sched: sharded execution requires a store (Options.Store or JournalDir); without one the merge step has nothing to collect")
		case s.opts.Controller != nil:
			return nil, fmt.Errorf("sched: sharded execution requires a fixed replication budget, not an adaptive Controller")
		case s.opts.OpenStore != nil:
			return nil, fmt.Errorf("sched: sharded execution uses journal shard files; it cannot combine with Options.OpenStore")
		}
	}
	store := s.opts.Store
	if store == nil && s.opts.JournalDir != "" {
		var err error
		switch {
		case sharded:
			store, err = shardstore.OpenShard(s.opts.JournalDir, e.Name, s.opts.Shard, s.opts.Shards)
		case s.opts.OpenStore != nil:
			store, err = s.opts.OpenStore(s.opts.JournalDir, e.Name)
		default:
			store, err = runstore.OpenDir(s.opts.JournalDir, e.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		defer store.Close()
	}

	return s.run(ctx, e, store)
}

// runWithRetry executes one unit with the configured retry budget,
// returning the responses and how many failed attempts were retried. A
// done context stops the retry loop — a canceled run must not burn its
// retry budget re-attempting units nobody will wait for.
func (s *Scheduler) runWithRetry(ctx context.Context, e *harness.Experiment, u unit) (map[string]float64, int, error) {
	attempts := 1 + s.opts.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	retried := 0
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if ctx.Err() != nil {
				break
			}
			retried++
		}
		resp, err := s.attempt(ctx, e, u)
		if err == nil {
			return resp, retried, nil
		}
		lastErr = err
	}
	if s.opts.Retries > 0 {
		lastErr = fmt.Errorf("sched: after %d attempts: %w", attempts, lastErr)
	}
	return nil, retried, lastErr
}

// attempt runs one unit, enforcing the per-attempt timeout if set.
// With a timeout armed, context cancellation abandons the attempt the
// same way a timeout does (see the Options.Timeout contract): the
// runner goroutine finishes in the background and its result is
// discarded. Without a timeout the attempt runs to completion — the
// harness RunFunc carries no context, so there is nothing to interrupt;
// cancellation then takes effect at the next unit boundary.
func (s *Scheduler) attempt(ctx context.Context, e *harness.Experiment, u unit) (map[string]float64, error) {
	if s.opts.Timeout <= 0 {
		return harness.RunUnit(e, u.a, u.row, u.rep)
	}
	type outcome struct {
		resp map[string]float64
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := harness.RunUnit(e, u.a, u.row, u.rep)
		ch <- outcome{resp, err}
	}()
	timer := time.NewTimer(s.opts.Timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.resp, out.err
	case <-ctx.Done():
		return nil, fmt.Errorf("sched: %s run %d replicate %d abandoned: %w",
			e.Name, u.row+1, u.rep+1, ctx.Err())
	case <-timer.C:
		if m := s.met; m != nil {
			m.timedout.Inc()
		}
		return nil, fmt.Errorf("sched: %s run %d replicate %d timed out after %v",
			e.Name, u.row+1, u.rep+1, s.opts.Timeout)
	}
}
