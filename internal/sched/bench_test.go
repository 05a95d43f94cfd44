package sched

import (
	"context"
	"testing"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
)

// benchExperiment is a 2^2 x 64 design with a runner doing a few
// microseconds of fixed arithmetic — the small end of a real measurement
// unit (actual experiment runners burn milliseconds), so the pool
// machinery and the instruments carry realistic relative weight. The
// absolute instrumentation cost is two clock reads plus a handful of
// atomic ops per unit (~160ns on a stock VM, dominated by time.Now);
// anything shorter than this runner measures channel handoff, not
// scheduling.
func benchExperiment(b *testing.B) *harness.Experiment {
	b.Helper()
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		b.Fatal(err)
	}
	d.Replicates = 64
	return &harness.Experiment{
		Name:      "bench 2^2",
		Design:    d,
		Responses: []string{"MIPS"},
		Run: func(a design.Assignment, rep int) (map[string]float64, error) {
			v := 1.0
			for i := 0; i < 5000; i++ {
				v += float64(i) * 1e-6
			}
			return map[string]float64{"MIPS": v + float64(rep)}, nil
		},
	}
}

func benchExecute(b *testing.B, s *Scheduler) {
	b.Helper()
	e := benchExperiment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(context.Background(), e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedInstrumented measures the fixed-budget path with the
// instruments live (a private registry, so benchmark runs do not pollute
// the process-wide series).
func BenchmarkSchedInstrumented(b *testing.B) {
	benchExecute(b, New(Options{Workers: 4, Metrics: obs.NewRegistry()}))
}

// BenchmarkSchedUninstrumented is the baseline: the same scheduler with
// its metrics handle cleared, compiling every instrument call site to a
// nil check. Compare with BenchmarkSchedInstrumented to bound the
// observability overhead (<5% is the budget; see ISSUE 7).
func BenchmarkSchedUninstrumented(b *testing.B) {
	s := New(Options{Workers: 4})
	s.met = nil
	benchExecute(b, s)
}
