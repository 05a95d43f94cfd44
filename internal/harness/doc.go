// Package harness orchestrates complete experiments: a factor design, a
// runner that produces response measurements for each factor-level
// combination with replication, and analysis (confidence intervals,
// factorial effects, allocation of variation) plus report rendering.
// It is the executable form of the paper's methodology pipeline:
// plan -> design -> run -> analyze -> present.
//
// Execution routes through the pluggable Executor interface: Sequential
// (the default — strictly ordered, single goroutine, because concurrent
// execution on one machine perturbs time measurements) or the
// concurrent, store-backed scheduler in internal/sched. An executor
// installs per context via WithExecutor — scoped, no global state; a
// context without one runs Sequential. Execute takes a context and
// threads it into the executor, so cancellation reaches the worker
// pool; Sequential checks it between units.
//
// Concurrency contract: Execute, WithExecutor and ExecutorFrom are safe
// for concurrent use. An Experiment and a ResultSet are passive
// data: safe for concurrent reads, not for mutation during a run. A
// RunFunc must be safe for concurrent invocation if (and only if) the
// experiment runs under a concurrent executor.
//
// Durability contract: none in this package — the harness computes in
// memory and renders reports. Persistence of completed units, crash
// recovery, and warm starts are the executor's business, via
// runstore.Store; see internal/sched and internal/runstore.
package harness
