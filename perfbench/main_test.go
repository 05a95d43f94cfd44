package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/runstore"
)

// smallConfig is a workload shrunk to test size: one set-up, a 4-rep
// design, a few run files.
func smallConfig(t *testing.T, workload string, seconds float64, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = workload, 5, seconds, trace
	cfg.workdir = t.TempDir()
	cfg.setups, cfg.reps = 1, 4
	cfg.baseRuns, cfg.slots, cfg.dropEvery = 4, 2, 5
	return cfg
}

func run(t *testing.T, cfg config) *result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := runBenchmark(ctx, cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", cfg.workload, cfg.trace, err)
	}
	return res
}

// TestWorkloadsSmoke runs every workload at test size, untraced and
// traced, and checks the result carries every metric it promises.
func TestWorkloadsSmoke(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := run(t, smallConfig(t, name, 0.5, false))
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("result %+v, want correct with attempts and no failures", res)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive finite value in %s", d.name, m, d.unit)
				}
			}
			res = run(t, smallConfig(t, name, 0.5, true))
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("per-layer metric %s = %+v, want a value in %s", d.name, m, d.unit)
				}
			}
			if u := res.Metrics["trace.unaccounted_frac"].Value; u > traceTolerance {
				t.Errorf("trace.unaccounted_frac = %g, above the %g tolerance", u, traceTolerance)
			}
		})
	}
}

// slowStore sleeps before every Append: a seeded slowdown of the
// runstore append path.
type slowStore struct {
	runstore.Store
	delay time.Duration
}

func (s slowStore) Append(rec runstore.Record) error {
	time.Sleep(s.delay)
	return s.Store.Append(rec)
}

// TestSeededSlowdownAttribution slows every local-run Append down. The
// benchmark must see it end to end on local-run (fewer units per
// second) and attribute it to the store (a higher append p50), while
// history-query, which appends nothing, stays within its bound.
func TestSeededSlowdownAttribution(t *testing.T) {
	const delay = 2 * time.Millisecond
	slow := func(s runstore.Store) runstore.Store { return slowStore{s, delay} }

	base := smallConfig(t, "local-run", 1, false)
	slowed := base
	slowed.wrapStore = slow
	before := run(t, base).Metrics["throughput_per_s"].Value
	after := run(t, slowed).Metrics["throughput_per_s"].Value
	t.Logf("local-run units_per_s %.0f -> %.0f", before, after)
	if !(after < before/2) {
		t.Errorf("local-run units_per_s %.0f -> %.0f with a %v Append, want it to drop by more than half", before, after, delay)
	}

	base.trace, slowed.trace = true, true
	p50 := run(t, base).Metrics["runstore.append_p50_us"].Value
	slowP50 := run(t, slowed).Metrics["runstore.append_p50_us"].Value
	t.Logf("runstore.append_p50_us %.0f -> %.0f", p50, slowP50)
	if !(slowP50 > p50+float64(delay.Microseconds())/2) {
		t.Errorf("runstore.append_p50_us %.0f -> %.0f with a %v Append, want the delay attributed to the store", p50, slowP50, delay)
	}

	// Alternate the two sides and compare medians, so one noisy run on
	// a shared machine does not decide the comparison.
	bound := benchmarkBound(t, "latency_p50_ms")
	hq := smallConfig(t, "history-query", 1.5, false)
	hqSlowed := hq
	hqSlowed.wrapStore = slow
	var q, qSlowed []float64
	for i := 0; i < 3; i++ {
		q = append(q, run(t, hq).Metrics["latency_p50_ms"].Value)
		qSlowed = append(qSlowed, run(t, hqSlowed).Metrics["latency_p50_ms"].Value)
	}
	t.Logf("history-query query_p50_ms %.4f -> %.4f (bound %.2f)", q, qSlowed, bound)
	if m, ms := median(q), median(qSlowed); math.Abs(ms/m-1) > bound {
		t.Errorf("history-query query_p50_ms median %.4f -> %.4f with the local-run slowdown injected, want within the benchmark's bound %.2f", m, ms, bound)
	}
}

// benchmarkBound reads a metric's bound from BENCHMARK.json.
func benchmarkBound(t *testing.T, metric string) float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == metric {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", metric)
	return 0
}
