package harness

import (
	"context"
	"fmt"
	"math"

	"repro/internal/design"
)

// Executor turns a validated Experiment into a ResultSet. The package-
// level Execute routes through the executor its context carries (see
// WithExecutor) so callers (the paperexp drivers, examples, the perfeval
// CLI) can swap the strictly sequential in-process executor for the
// concurrent, journaled scheduler in internal/sched without touching
// experiment code. Sequential stays the default: for
// measurement-sensitive runs, concurrent execution on one machine
// perturbs the very quantity being measured.
//
// The context carries cancellation through the whole execution: an
// executor must stop scheduling new units once ctx is done, drain
// whatever is in flight (persisting completed units, so a resumed run
// warm-starts from them), and return ctx.Err().
type Executor interface {
	Execute(ctx context.Context, e *Experiment) (*ResultSet, error)
}

// executorKey carries a scoped Executor in a context.
type executorKey struct{}

// WithExecutor returns a context that carries ex: every package-level
// Execute under that context runs through ex instead of Sequential. This
// is how the public repro API binds a configured scheduler to one run
// without global state — two goroutines can run the same experiment
// through different executors concurrently.
func WithExecutor(ctx context.Context, ex Executor) context.Context {
	return context.WithValue(ctx, executorKey{}, ex)
}

// ExecutorFrom returns the executor Execute would use under ctx: the
// context-carried one if present, Sequential otherwise.
func ExecutorFrom(ctx context.Context) Executor {
	if ex, ok := ctx.Value(executorKey{}).(Executor); ok && ex != nil {
		return ex
	}
	return Sequential{}
}

// Execute runs the full design with replication through the context's
// executor (see WithExecutor), falling back to Sequential.
func Execute(ctx context.Context, e *Experiment) (*ResultSet, error) {
	return ExecutorFrom(ctx).Execute(ctx, e)
}

// CellStats itemizes the replicates an executor spent on one design cell
// (one factor-level assignment). Executed counts live runs, Replayed
// counts journal restores; both charge against the cell's replication
// budget. Note carries the executor's own account of why the cell
// stopped (e.g. the adaptive controller's precision-reached message).
type CellStats struct {
	Row        int
	Assignment design.Assignment
	Executed   int
	Replayed   int
	Note       string
}

// Spent returns the total replicates charged to the cell.
func (c CellStats) Spent() int { return c.Executed + c.Replayed }

// Sequential executes every design row and replicate strictly in order in
// the calling goroutine — the executor of choice when the response is a
// time measurement that concurrent load would distort. Cancellation is
// checked between units: the unit being measured always completes, the
// next one never starts.
type Sequential struct{}

// Execute implements Executor.
func (Sequential) Execute(ctx context.Context, e *Experiment) (*ResultSet, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	rs := &ResultSet{Experiment: e}
	for r := 0; r < e.Design.NumRuns(); r++ {
		a, err := e.Design.Assignment(r)
		if err != nil {
			return nil, err
		}
		row := ResultRow{Assignment: a}
		for rep := 0; rep < e.Design.Replicates; rep++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("harness: %s interrupted before run %d replicate %d: %w", e.Name, r+1, rep+1, err)
			}
			resp, err := RunUnit(e, a, r, rep)
			if err != nil {
				return nil, err
			}
			row.Reps = append(row.Reps, resp)
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, nil
}

// RunUnit executes one (design row, replicate) unit through the
// experiment's runner and validates the produced responses. Both the
// Sequential executor and the concurrent scheduler funnel every live run
// through here so error text and response validation stay identical.
func RunUnit(e *Experiment, a design.Assignment, r, rep int) (map[string]float64, error) {
	resp, err := e.Run(a, rep)
	if err != nil {
		return nil, fmt.Errorf("harness: %s run %d replicate %d (%s): %w", e.Name, r+1, rep+1, a, err)
	}
	if err := CheckResponses(e, resp); err != nil {
		return nil, fmt.Errorf("harness: %s run %d replicate %d (%s): %w", e.Name, r+1, rep+1, a, err)
	}
	return resp, nil
}

// CheckResponses verifies a runner's output map: it must be non-nil and
// contain a finite value for every declared response. NaN or infinite
// values are rejected here, at the source, because a single NaN silently
// poisons every downstream mean, CI, and effect estimate.
func CheckResponses(e *Experiment, resp map[string]float64) error {
	if resp == nil {
		return fmt.Errorf("runner returned nil responses")
	}
	for _, want := range e.Responses {
		v, ok := resp[want]
		if !ok {
			return fmt.Errorf("runner did not produce response %q", want)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("runner produced non-finite %q = %v", want, v)
		}
	}
	return nil
}
