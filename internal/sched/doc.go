// Package sched is the concurrent experiment executor: one scheduler
// loop that runs every design cell, replicates it, and stops when the
// cell's replication target is met — with bounded parallelism, per-unit
// retry and timeout, deterministic result ordering, and warm-start from
// a runstore store (units already persisted are replayed from disk
// instead of re-executed).
//
// The target comes from a Controller. Options.Controller
// (internal/adaptive) grows each cell batch by batch until its
// sequential-analysis stopping rule is met, so replication is spent
// where variance demands it; without one the loop runs a constant
// controller that targets Design.Replicates, the fixed budget. Either
// way a cell first replays the contiguous replicate prefix its store
// holds, and every unit the loop then schedules is looked up first: a
// stored unit that still satisfies the response contract is replayed,
// not dispatched.
//
// The scheduler implements harness.Executor, so it plugs into the
// package-level harness.Execute, scoped to one run via
// harness.WithExecutor (how the public repro package binds it). It is
// an opt-in: the sequential executor remains the default because
// concurrent execution on one machine perturbs time measurements — use
// the scheduler for simulation-backed or I/O-bound experiments, for
// re-running large designs after a crash, and for analysis passes where
// wall-clock throughput matters more than measurement isolation.
//
// Concurrency contract: a Scheduler is safe for use from multiple
// goroutines; each Execute call runs its own worker pool, whose one
// dispatcher goroutine owns the queue, the result slots and every
// controller call. A timed-out unit's goroutine is abandoned, never
// joined — see Options.Timeout for the full abandonment contract.
//
// Cancellation contract: Execute takes a context; once it is done the
// scheduler stops feeding work, drains in-flight units (each journaled
// as it completes), waits for every worker to exit, and returns the
// context error. The store is always left valid and warm-startable —
// an interrupted run resumes by re-running with the same store.
//
// Durability contract: the scheduler owns none itself; it delegates to
// whatever runstore.Store it runs against (Options.Store, or a
// per-experiment store opened from Options.JournalDir — the JSONL
// journal by default, a shard of a sharded store under sharded
// execution, or any backend via Options.OpenStore). Every completed
// unit is appended — and therefore durable, per the Store contract —
// before its result enters the ResultSet, so a crash never loses
// completed work, only work in flight.
//
// The Store seam is what makes the scheduler distribution-agnostic: the
// collector worker (internal/collector/client) hands Options.Store a
// remote-store adapter that spools locally and streams appends to a
// collector daemon, and the scheduler neither knows nor cares — the
// same warm-start Lookup replays units other machines already ran, and
// the same Shards/Shard partition bounds what this process executes.
package sched
