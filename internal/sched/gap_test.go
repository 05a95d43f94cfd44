package sched

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// gapExperiment is a one-cell, three-replicate experiment whose runner
// records which replicates it executed.
func gapExperiment(t *testing.T, ran *[]int, mu *sync.Mutex) *harness.Experiment {
	t.Helper()
	e := newWideExperiment(t, 2, 3, func(a design.Assignment, rep int) (map[string]float64, error) {
		mu.Lock()
		*ran = append(*ran, rep)
		mu.Unlock()
		return wideRunner(a, rep)
	})
	e.Design.Rows = e.Design.Rows[:1]
	return e
}

// writeGappedJournal journals replicates 0 and 2 of the experiment's only
// cell — the hole a crash or a partial merge can leave — and returns
// the cell's assignment hash.
func writeGappedJournal(t *testing.T, dir string, e *harness.Experiment) string {
	t.Helper()
	a, err := e.Design.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	hash := runstore.AssignmentHash(a)
	j, err := runstore.OpenDir(dir, e.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rep := range []int{0, 2} {
		resp, err := wideRunner(a, rep)
		if err != nil {
			t.Fatal(err)
		}
		rec := runstore.Record{Experiment: e.Name, Row: 0, Replicate: rep, Hash: hash, Assignment: a, Responses: resp}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return hash
}

// TestResumeReplaysJournalGaps pins the warm start over a journal with
// a hole: replicates 0 and 2 replay, only replicate 1 executes, and the
// artifact equals a cold run's. The fixed budget has always done this;
// an adaptive resume does it too, because replicate 2 falls inside the
// batch its controller schedules.
func TestResumeReplaysJournalGaps(t *testing.T) {
	for _, adaptiveRun := range []bool{false, true} {
		t.Run(fmt.Sprintf("adaptive=%v", adaptiveRun), func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			var ran []int
			e := gapExperiment(t, &ran, &mu)
			writeGappedJournal(t, dir, e)

			opts := Options{Workers: 2, JournalDir: dir, Metrics: obs.NewRegistry()}
			if adaptiveRun {
				ctrl, err := adaptive.New(adaptive.Options{Min: 3, Max: 3})
				if err != nil {
					t.Fatal(err)
				}
				opts.Controller = ctrl
			}
			s := New(opts)
			rs, err := s.Execute(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			st := s.LastStats()
			if st.Replayed != 2 || st.Executed != 1 || st.Units != 3 || st.Skipped != 0 {
				t.Errorf("stats = %+v, want 2 replayed + 1 executed", st)
			}
			if fmt.Sprint(ran) != "[1]" {
				t.Errorf("executed replicates %v, want [1]", ran)
			}
			// Per-cell budgets and controller decisions exist only on
			// adaptive runs.
			cells := s.TakeCellStats()
			decided, _ := s.MetricsSnapshot().Get("sched_adaptive_stop_total")
			if adaptiveRun && (len(cells) != 1 || cells[0].Replayed != 2 || cells[0].Executed != 1 || decided.Value != 1) {
				t.Errorf("CellStats = %+v, stop decisions %v; want one cell with 2 replayed + 1 executed, 1 stop", cells, decided.Value)
			}
			if !adaptiveRun && (cells != nil || decided.Value != 0) {
				t.Errorf("fixed budget reported CellStats %+v, %v stop decisions", cells, decided.Value)
			}

			var coldRan []int
			cold, err := New(Options{Workers: 1}).Execute(context.Background(), gapExperiment(t, &coldRan, &mu))
			if err != nil {
				t.Fatal(err)
			}
			if rs.CSV() != cold.CSV() || rs.Report() != cold.Report() {
				t.Errorf("gap-filled run differs from a cold run:\n%s\nvs\n%s", rs.CSV(), cold.CSV())
			}
		})
	}
}

// TestShardedRunTrimsUnownedGappedRow runs the shard that does not own
// the gapped cell over the same journal: it executes nothing, replays
// both journaled replicates, counts the hole as skipped, and its row
// carries only the contiguous prefix (replicate 0).
func TestShardedRunTrimsUnownedGappedRow(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	var mu sync.Mutex
	var ran []int
	e := gapExperiment(t, &ran, &mu)
	hash := writeGappedJournal(t, dir, e)

	j, err := runstore.OpenDir(dir, e.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	other := 1 - runstore.ShardIndex(hash, shards)
	s := New(Options{Workers: 2, Store: j, Shards: shards, Shard: other})
	rs, err := s.Execute(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	want := Stats{Units: 2, Replayed: 2, Skipped: 1, FixedBudget: 3}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if len(ran) != 0 {
		t.Errorf("unowned cell executed replicates %v", ran)
	}
	if got := len(rs.Rows[0].Reps); got != 1 {
		t.Fatalf("unowned gapped row has %d replicates, want the 1-replicate prefix", got)
	}
	if ms := rs.Rows[0].Reps[0]["ms"]; ms != 0 {
		t.Errorf("row prefix holds ms = %v, want replicate 0's value 0", ms)
	}
}

// TestFixedBudgetReplaysOnlyItsBudget re-runs a journal written with 3
// replicates per cell at a budget of 2: the warm start replays exactly
// replicates 0 and 1 of each cell, and the artifact equals a cold run
// at 2.
func TestFixedBudgetReplaysOnlyItsBudget(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(Options{Workers: 2, JournalDir: dir}).Execute(context.Background(), newExperiment(t, 3, nil)); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, JournalDir: dir})
	rs, err := s.Execute(context.Background(), newExperiment(t, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.LastStats(); st.Replayed != 8 || st.Executed != 0 || st.Units != 8 {
		t.Errorf("stats = %+v, want 8 replayed of the 2-replicate budget", st)
	}
	cold, err := harness.Sequential{}.Execute(context.Background(), newExperiment(t, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rs.CSV() != cold.CSV() || rs.Report() != cold.Report() {
		t.Errorf("replayed run differs from a cold 2-replicate run:\n%s\nvs\n%s", rs.CSV(), cold.CSV())
	}
}
