package sched

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
)

// Controller decides, per design cell, how much replication is enough —
// the sequential-analysis hook of the scheduler's one loop. The
// scheduler owns the mechanics (workers, retries, journaling, result
// assembly); the controller owns the policy (stopping rule, budget
// envelope, priorities). internal/adaptive provides the CI-targeted
// implementation; a run without one uses the fixed budget, a constant
// controller that targets Design.Replicates for every cell.
//
// Cells are identified by the opaque key runstore.CellKey(experiment,
// hash), so one controller can serve several experiments without state
// bleeding across them.
//
// Determinism contract: the scheduler only calls Target at batch
// boundaries — when every replicate it has scheduled for the cell has
// been observed — and replicates of one cell always form the contiguous
// prefix 0..n-1. A controller whose decisions depend only on the
// observed values of the cell under decision therefore yields the same
// replicate count per cell regardless of worker count or completion
// order. Implementations must be safe for concurrent use: warm-start
// replay observes cells from one goroutine, but a controller may be
// shared by schedulers running in parallel.
type Controller interface {
	// Observe ingests one completed replicate of a cell — live or
	// journal-replayed — restricted to the experiment's declared
	// responses. The map may be the one the ResultSet holds: read it,
	// do not modify or keep it.
	Observe(cell string, replicate int, responses map[string]float64)
	// Target returns the total number of replicates the cell should
	// reach, given that observed have completed. A value <= observed
	// stops the cell; a larger value schedules the difference as the
	// next batch. The first call (observed may be 0 on a cold start)
	// must return at least 1 — every cell needs one measurement to say
	// anything at all.
	Target(cell string, observed int) int
	// Priority reports whether the cell should be scheduled ahead of
	// non-priority cells (e.g. a cell the regression gate flagged).
	Priority(cell string) bool
	// Explain renders a short human-readable account of the cell's
	// state — achieved precision, applied target, stop reason — for
	// budget reports.
	Explain(cell string) string
}

// fixedBudget is the controller of a run without Options.Controller:
// every cell targets Design.Replicates, and there is nothing to observe,
// prioritize or explain.
type fixedBudget int

func (fixedBudget) Observe(string, int, map[string]float64) {}
func (b fixedBudget) Target(string, int) int                { return int(b) }
func (fixedBudget) Priority(string) bool                    { return false }
func (fixedBudget) Explain(string) string                   { return "" }

// unit is one (design row, replicate) execution.
type unit struct {
	row, rep int
	a        design.Assignment
	hash     string
}

// cellState tracks one design cell through an execution.
type cellState struct {
	unit                           // row, a, hash of the cell (rep field unused)
	key       string               // runstore.CellKey: the controller's name for the cell
	owned     bool                 // this shard runs the cell; otherwise it only replays
	reps      []map[string]float64 // indexed by replicate, one slot per scheduled replicate
	completed int                  // replicates observed (incl. replayed)
	replayed  int                  // store restores among completed
}

// outcome is one completed live unit coming back from a worker.
type outcome struct {
	u       unit
	resp    map[string]float64
	retried int
	err     error
}

// execution is the state of one Execute call. The dispatcher goroutine
// owns all of it — queue, cell states, stats and every controller call
// — so none of it needs a lock; workers only run units and append them
// to the store.
type execution struct {
	s        *Scheduler
	e        *harness.Experiment
	store    runstore.Store // nil: nothing is replayed or persisted
	ctrl     Controller
	adaptive bool // Options.Controller is set: CellStats and the adaptive counters are reported
	cells    []*cellState
	stats    Stats
}

// declaredResponses filters a response map down to the experiment's
// declared responses, so controller decisions cannot hinge on
// undeclared debug outputs a runner happens to emit. resp has passed
// harness.CheckResponses, so it holds every declared response; with no
// more keys than that it holds nothing else and is returned as is.
func declaredResponses(e *harness.Experiment, resp map[string]float64) map[string]float64 {
	if len(resp) == len(e.Responses) {
		return resp
	}
	out := make(map[string]float64, len(e.Responses))
	for _, name := range e.Responses {
		out[name] = resp[name]
	}
	return out
}

// run is the scheduler's one loop. Every cell first replays the
// contiguous replicate prefix the store holds, then grows batch by batch
// until its controller's Target is met; a run without Options.Controller
// uses fixedBudget, so every cell reaches exactly Design.Replicates.
// Retry, timeout, journaling and design-ordered result assembly are the
// same for both.
func (s *Scheduler) run(ctx context.Context, e *harness.Experiment, store runstore.Store) (*harness.ResultSet, error) {
	x := &execution{s: s, e: e, store: store, ctrl: s.opts.Controller, adaptive: s.opts.Controller != nil}
	reps := e.Design.Replicates
	walk := math.MaxInt // an adaptive resume keeps every replicate it journaled
	if !x.adaptive {
		// The store may hold more replicates than this budget (a run
		// with a larger Replicates wrote it); replay only the budget.
		x.ctrl, walk = fixedBudget(reps), reps
	}
	rows := e.Design.NumRuns()
	x.stats.FixedBudget = rows * reps
	x.cells = make([]*cellState, rows)
	for r := range x.cells {
		a, err := e.Design.Assignment(r)
		if err != nil {
			return nil, err
		}
		hash := runstore.AssignmentHash(a)
		c := &cellState{
			unit:  unit{row: r, a: a, hash: hash},
			key:   runstore.CellKey(e.Name, hash),
			owned: s.opts.Shards <= 0 || runstore.ShardIndex(hash, s.opts.Shards) == s.opts.Shard,
		}
		if store != nil {
			// Warm start: replay the contiguous replicate prefix that
			// still satisfies the response contract, feeding each
			// restored replicate to the controller so a resumed run
			// keeps the budget it already spent.
			n := min(store.ReplicateCount(e.Name, hash), walk)
			for rep := 0; rep < n; rep++ {
				resp, ok := x.lookup(c, rep)
				if !ok {
					break
				}
				c.reps = append(c.reps, nil)
				x.complete(c, rep, resp, true)
			}
		}
		x.cells[r] = c
	}

	// Initial targets for every cell first — Target is where a
	// controller notices that a warm-started cell already shifted
	// against its baseline and flags it — then feed priority cells
	// ahead of the rest, both groups in stable row order.
	batches := make([][]unit, rows)
	for r, c := range x.cells {
		batches[r] = x.next(c)
	}
	var queue []unit
	for pass := 0; pass < 2; pass++ {
		for r, c := range x.cells {
			if len(batches[r]) > 0 && x.ctrl.Priority(c.key) == (pass == 0) {
				queue = append(queue, batches[r]...)
			}
		}
	}

	if err := x.dispatch(ctx, queue); err != nil {
		return nil, err
	}

	rs := &harness.ResultSet{Experiment: e}
	var cellStats []harness.CellStats
	for _, c := range x.cells {
		// Every scheduled replicate of a cell this shard owns completed.
		// A cell another shard owns carries only what the store held:
		// its contiguous replicate prefix, so the ResultSet never holds
		// a nil replicate.
		n := 0
		for n < len(c.reps) && c.reps[n] != nil {
			n++
		}
		rs.Rows = append(rs.Rows, harness.ResultRow{Assignment: c.a, Reps: c.reps[:n]})
		if x.adaptive {
			cellStats = append(cellStats, harness.CellStats{
				Row:        c.row,
				Assignment: c.a,
				Executed:   c.completed - c.replayed,
				Replayed:   c.replayed,
				Note:       x.ctrl.Explain(c.key),
			})
		}
	}
	x.stats.Units = x.stats.Executed + x.stats.Replayed
	s.mu.Lock()
	s.last = x.stats
	s.lastCells = cellStats
	s.mu.Unlock()
	return rs, nil
}

// lookup returns the store's record of one replicate of c if it still
// satisfies the experiment's response contract; a record written before
// a response was added is re-executed instead.
func (x *execution) lookup(c *cellState, rep int) (map[string]float64, bool) {
	if x.store == nil {
		return nil, false
	}
	rec, ok := x.store.Lookup(x.e.Name, c.hash, rep)
	if !ok || harness.CheckResponses(x.e, rec.Responses) != nil {
		return nil, false
	}
	return rec.Responses, true
}

// complete records one replicate of c — run live or replayed from the
// store — and hands it to the controller.
func (x *execution) complete(c *cellState, rep int, resp map[string]float64, replayed bool) {
	c.reps[rep] = resp
	x.ctrl.Observe(c.key, rep, declaredResponses(x.e, resp))
	c.completed++
	m := x.s.met
	if replayed {
		c.replayed++
		x.stats.Replayed++
		if m != nil {
			m.replayed.Inc()
		}
		return
	}
	x.stats.Executed++
	if m != nil {
		m.executed.Inc()
	}
}

// next is c's batch boundary: every replicate scheduled so far has been
// observed, so the controller decides whether the cell grows. It returns
// the units to dispatch, or nil once the cell is done. A scheduled
// replicate the store already holds is replayed, not dispatched, so a
// batch made only of replays reaches its boundary at once and the
// controller decides again. A cell another shard owns replays what the
// store holds of its batch, counts the rest as skipped, and is done.
func (x *execution) next(c *cellState) []unit {
	for {
		target := x.ctrl.Target(c.key, c.completed)
		stop := target <= c.completed && c.completed > 0
		if m := x.s.met; m != nil && x.adaptive {
			if stop {
				m.adaptStop.Inc()
			} else {
				m.adaptGrow.Inc()
			}
		}
		if stop {
			return nil
		}
		end := max(target, 1) // a cell with no measurements can claim nothing
		c.reps = slices.Grow(c.reps, end-len(c.reps))
		batch := make([]unit, 0, end-len(c.reps))
		for rep := len(c.reps); rep < end; rep++ {
			c.reps = append(c.reps, nil)
			if resp, ok := x.lookup(c, rep); ok {
				x.complete(c, rep, resp, true)
			} else if c.owned {
				batch = append(batch, unit{row: c.row, rep: rep, a: c.a, hash: c.hash})
			} else {
				x.stats.Skipped++
				if m := x.s.met; m != nil {
					m.skipped.Inc()
				}
			}
		}
		if len(batch) > 0 || !c.owned {
			return batch
		}
	}
}

// dispatch drives the queue through the worker pool. The dispatcher
// (the calling goroutine) feeds units, collects outcomes, and at each
// batch boundary asks next for more work — a priority cell's batch
// jumps the queue. A done context or the first unit failure stops work
// generation: the queue is dropped, in-flight units drain (journaled as
// they complete), and the error is returned — the store stays valid and
// warm-startable, holding exactly the completed units.
func (x *execution) dispatch(ctx context.Context, queue []unit) error {
	if len(queue) == 0 {
		return nil
	}
	// No clamp to the initial queue length: the queue grows as the
	// controller extends cells, so a small initial batch says nothing
	// about later breadth. Surplus workers idle on the channel.
	workers := x.s.opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := make(chan unit)
	done := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.work(ctx, jobs, done)
		}()
	}
	// The loop below receives every outcome before it returns, so no
	// worker is blocked on done by the time jobs closes.
	defer wg.Wait()
	defer close(jobs)

	var failed error
	inflight := 0
	// The dispatcher owns the queue, so a plain Set per iteration keeps
	// the gauge exact without any coordination.
	m := x.s.met
	if m != nil {
		defer m.queueDepth.Set(0)
	}
	for {
		if ctx.Err() != nil {
			queue = nil // stop generating work, drain what is in flight
		}
		if inflight == 0 && len(queue) == 0 {
			break
		}
		if m != nil {
			m.queueDepth.Set(int64(len(queue)))
		}
		var feed chan unit
		var next unit
		if len(queue) > 0 {
			feed, next = jobs, queue[0]
		}
		select {
		case feed <- next:
			queue = queue[1:]
			inflight++
		case out := <-done:
			inflight--
			x.stats.Retried += out.retried
			if m != nil && out.retried > 0 {
				m.retried.Add(int64(out.retried))
			}
			if out.err != nil {
				// An attempt abandoned by cancellation is not a unit
				// failure; the return below reports the interruption.
				if failed == nil && ctx.Err() == nil {
					failed = out.err
				}
				queue = nil
				continue
			}
			c := x.cells[out.u.row]
			x.complete(c, out.u.rep, out.resp, false)
			if failed != nil || ctx.Err() != nil || c.completed < len(c.reps) {
				continue
			}
			grown := x.next(c)
			if x.ctrl.Priority(c.key) {
				queue = append(grown, queue...)
			} else {
				queue = append(queue, grown...)
			}
		}
	}
	if failed != nil {
		return failed
	}
	if ctx.Err() != nil {
		return fmt.Errorf("sched: %s interrupted: %w (journal holds every completed unit; re-run to resume)", x.e.Name, context.Cause(ctx))
	}
	return nil
}

// work runs the units it receives and appends each to the store before
// reporting it, so a unit is durable before its result counts.
func (x *execution) work(ctx context.Context, jobs <-chan unit, done chan<- outcome) {
	for u := range jobs {
		start := time.Now()
		resp, retried, err := x.s.runWithRetry(ctx, x.e, u)
		if m := x.s.met; m != nil {
			m.unitSeconds.Observe(time.Since(start).Seconds())
		}
		if err == nil && x.store != nil {
			err = x.store.Append(runstore.Record{
				Experiment: x.e.Name,
				Row:        u.row,
				Replicate:  u.rep,
				Hash:       u.hash,
				Assignment: u.a,
				Responses:  resp,
			})
		}
		done <- outcome{u: u, resp: resp, retried: retried, err: err}
	}
}
