// Adaptive: run a mixed-variance experiment under the sequential-
// analysis replication controller and compare its spend against the
// fixed rows x replicates budget.
//
// The walkthrough:
//
//  1. a 2x2 design over a deterministic simulated workload where half
//     the cells are nearly noise-free and half jitter by ±20%;
//  2. a fixed-budget run spends 40 replicates on every cell — the
//     stable cells are over-measured, pure waste;
//  3. an adaptive run stops each cell once its 95% confidence interval
//     is within ±5% of the mean (after at least 3 replicates, at most
//     40): stable cells stop at 3, noisy cells run as long as they
//     need;
//  4. a second adaptive run (fresh journal — it measures a different
//     build) is given the first run as a baseline, with one cell
//     artificially slowed 30%: the drifted cell is gate-flagged,
//     scheduled first, and held to a tighter ±2.5% target.
//
// Run with: go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/adaptive"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/sched"
)

// simulate is deterministic in (assignment, replicate): the hi-noise
// cells jitter by ±20%, the lo-noise cells by ±0.1%.
func simulate(a design.Assignment, rep int, slowdown float64) map[string]float64 {
	amp := 0.001
	if a["noise"] == "hi" {
		amp = 0.2
	}
	scale := map[string]float64{"1GB": 1, "10GB": 10}[a["data"]]
	jitter := math.Sin(float64(rep)*2.399963) * amp
	return map[string]float64{"ms": 100 * scale * (1 + jitter) * slowdown}
}

func experiment(run harness.RunFunc) (*harness.Experiment, error) {
	d, err := design.FullFactorial([]design.Factor{
		design.MustFactor("noise", "lo", "hi"),
		design.MustFactor("data", "1GB", "10GB"),
	})
	if err != nil {
		return nil, err
	}
	d.Replicates = 40 // the fixed budget the controller competes against
	return &harness.Experiment{
		Name: "mixed-variance scan", Design: d, Responses: []string{"ms"}, Run: run,
	}, nil
}

func report(s *sched.Scheduler) {
	st := s.LastStats()
	fmt.Printf("spent %d replicates (%d live, %d replayed) vs fixed budget %d (%.1f%% saved)\n",
		st.Units, st.Executed, st.Replayed, st.FixedBudget,
		(1-float64(st.Units)/float64(st.FixedBudget))*100)
	for _, c := range s.TakeCellStats() {
		fmt.Printf("  run %d  %-22s  %2d reps  %s\n", c.Row+1, c.Assignment, c.Spent(), c.Note)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive:", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "adaptive-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	healthy := func(a design.Assignment, rep int) (map[string]float64, error) {
		return simulate(a, rep, 1.0), nil
	}

	// Fixed budget: every cell gets all 40 replicates.
	e, err := experiment(healthy)
	if err != nil {
		return err
	}
	fixed := sched.New(sched.Options{Workers: 4})
	if _, err := fixed.Execute(context.Background(), e); err != nil {
		return err
	}
	fmt.Printf("== fixed budget ==\nspent %d replicates\n\n", fixed.LastStats().Units)

	// Adaptive: same CI quality, paid for only where variance demands.
	newCtrl := func() (*adaptive.Controller, error) {
		return adaptive.New(adaptive.Options{Rel: 0.05, Min: 3, Max: 40})
	}
	ctrl, err := newCtrl()
	if err != nil {
		return err
	}
	e, err = experiment(healthy)
	if err != nil {
		return err
	}
	s := sched.New(sched.Options{Workers: 4, JournalDir: dir, Controller: ctrl})
	rs, err := s.Execute(context.Background(), e)
	if err != nil {
		return err
	}
	fmt.Println("== adaptive ==")
	report(s)

	// Second pass: the first run becomes the baseline and the lo/1GB
	// cell is slowed by 30%. Its running interval drifts off the
	// baseline interval, so the cell gets gate-flagged and held to the
	// tight target.
	baseline := runstore.FromResultSet(rs)
	ctrl2, err := newCtrl()
	if err != nil {
		return err
	}
	if err := ctrl2.AddBaseline(baseline); err != nil {
		return err
	}
	slowed := func(a design.Assignment, rep int) (map[string]float64, error) {
		slowdown := 1.0
		if a["noise"] == "lo" && a["data"] == "1GB" {
			slowdown = 1.3
		}
		return simulate(a, rep, slowdown), nil
	}
	// A fresh journal for the regressed build: mixing builds in one
	// journal would replay stale measurements.
	dir2 := filepath.Join(dir, "regressed")
	e, err = experiment(slowed)
	if err != nil {
		return err
	}
	s2 := sched.New(sched.Options{Workers: 4, JournalDir: dir2, Controller: ctrl2})
	if _, err := s2.Execute(context.Background(), e); err != nil {
		return err
	}
	fmt.Println("\n== adaptive vs baseline, one cell 30% slower ==")
	report(s2)
	return nil
}
