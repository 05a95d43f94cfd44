// Command perfbench is the repository's benchmark: three closed-loop
// workloads that drive the experiment → scheduler → store or collector
// → merge → warehouse path through the packages' public functions,
// time every call from outside the program, and check the outputs.
//
//	perfbench --workload local-run|fleet-ingest|history-query \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and prints the per-layer
// metrics from the spans it recorded around each call. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Any failed correctness check exits non-zero without that line.
// BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md next to this file defines each one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/runstore"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch stores live under it; removed at exit
	tracedir string // where a traced run writes its spans; "" skips
	setups   int    // set-up repetitions; setup_s is their median
	reps     int    // replicates per design cell
	// History-query shape.
	baseRuns  int // seeded runs written at set-up
	slots     int // run files the load generator rewrites
	dropEvery int // queries between two dropped run files
	// wrapStore, when set, wraps the journal behind every local-run
	// scheduler: the seeded-slowdown test injects a slow Append here.
	wrapStore func(runstore.Store) runstore.Store
}

func defaultConfig() config {
	return config{setups: 5, reps: 32, baseRuns: 12, slots: 4, dropEvery: 200}
}

// figures is what one timed phase of a workload measured. Rates are
// reported as the median of many short measurements (one per cycle or
// time slice), so a stall on the shared machine moves one sample, not
// the figure.
type figures struct {
	wall      time.Duration // time inside the timed sections
	ops       float64       // closed-loop operations completed
	opsTime   time.Duration // time those operations took
	opsRates  []float64     // operations per second, one per cycle or slice
	reads     float64       // records through the workload's read path
	readsTime time.Duration
	readRates []float64
	lat       []float64 // per-operation latency, ms; +Inf for refused
	diskBytes float64   // bytes at rest ...
	diskRecs  float64   // ... for this many stored records
	attempted int64
	failed    int64
}

func (f *figures) add(g figures) {
	f.wall += g.wall
	f.ops += g.ops
	f.opsTime += g.opsTime
	f.opsRates = append(f.opsRates, g.opsRates...)
	f.reads += g.reads
	f.readsTime += g.readsTime
	f.readRates = append(f.readRates, g.readRates...)
	f.lat = append(f.lat, g.lat...)
	f.diskBytes += g.diskBytes
	f.diskRecs += g.diskRecs
	f.attempted += g.attempted
	f.failed += g.failed
}

func (f figures) opsPerS() float64   { return median(f.opsRates) }
func (f figures) readsPerS() float64 { return median(f.readRates) }

// workload is one set-up workload, ready for timed phases.
type workload interface {
	// measure runs the closed loop for about budget; tr is nil when the
	// phase is untraced.
	measure(ctx context.Context, budget time.Duration, tr *tracer) (figures, error)
	// check verifies the program's outputs once the timed phases are
	// over, returning one line per check that passed.
	check(ctx context.Context) ([]string, error)
	// layers computes the per-layer metrics of the traced phase, and
	// for each ratio the base it was taken over.
	layers(tr *tracer, st selfTimes, traced figures) (map[string]float64, map[string]string)
	// names maps the generic end-to-end metrics to this workload's
	// meaning of them, for the report.
	names() map[string]string
	close() error
}

type workloadSpec struct {
	why   string
	setup func(ctx context.Context, cfg config, dir string) (workload, error)
}

var workloads = map[string]workloadSpec{
	"local-run": {
		why:   "2-worker scheduler into a fresh fsync-per-unit JSONL journal, then a warm replay of the same design: sched and the runstore append and reopen paths; client, collector and warehouse idle",
		setup: setupLocalRun,
	},
	"fleet-ingest": {
		why:   "two collector workers stream the design over loopback in binary batches of 32 into a 2-shard daemon with 2 ms group commit, then the shard stores are merged: client, HTTP, decode, group commit",
		setup: setupFleetIngest,
	},
	"history-query": {
		why:   "cold warehouse build over seeded runs in four formats, then 2 closed-loop /v1/query clients (70% history) while run files keep landing: warehouse and store read paths",
		setup: setupHistoryQuery,
	},
}

// metricDef is one metric of the JSON result.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics, the same names on every
// workload; README.md gives each workload's meaning of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"read_records_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"disk_bytes_per_record", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics; a layer a workload leaves idle
// reports 0.
var perLayer = []metricDef{
	{"harness.run_s", "s"},
	{"harness.runs", "count"},
	{"sched.execute_s", "s"},
	{"sched.self_s", "s"},
	{"sched.units_executed", "count"},
	{"sched.units_replayed", "count"},
	{"sched.units_retried", "count"},
	{"sched.unit_p50_ms", "ms"},
	{"runstore.open_s", "s"},
	{"runstore.append_p50_us", "us"},
	{"runstore.append_p99_us", "us"},
	{"runstore.append_s", "s"},
	{"runstore.fsyncs_per_record", "ratio"},
	{"runstore.write_bytes_per_record", "B"},
	{"runstore.scan_records", "count"},
	{"runstore.merge_s", "s"},
	{"client.acquire_ms", "ms"},
	{"client.release_ms", "ms"},
	{"client.snapshot_ms", "ms"},
	{"client.renew_requests", "count"},
	{"client.ingest_requests", "count"},
	{"client.acquire_busy", "count"},
	{"client.wire_bytes_per_record", "B"},
	{"client.refused", "count"},
	{"client.backpressure_wait_ms", "ms"},
	{"client.transport_retries", "count"},
	{"collector.commit_p50_ms", "ms"},
	{"collector.commit_p99_ms", "ms"},
	{"collector.ingest_rejected", "count"},
	{"collector.batches_per_fsync", "ratio"},
	{"collector.query_http_self_ms", "ms"},
	{"warehouse.refresh_p50_ms", "ms"},
	{"warehouse.refresh_records", "count"},
	{"warehouse.refresh_ingest_share", "ratio"},
	{"warehouse.query_history_p50_ms", "ms"},
	{"warehouse.query_runs_p50_ms", "ms"},
	{"warehouse.query_trends_p50_ms", "ms"},
	{"warehouse.query_regressions_p50_ms", "ms"},
	{"warehouse.index_bytes", "B"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

// traceTolerance bounds trace.unaccounted_frac: the layer self times
// along the blocking path must cover the measured wall time of the
// traced phase to within this share, or the traced run fails.
const traceTolerance = 0.10

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := defaultConfig()
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: local-run, fleet-ingest or history-query")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase, s")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer breakdown")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for stores (required)")
	flag.StringVar(&cfg.tracedir, "tracedir", "", "directory a traced run writes its spans to")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := validate(cfg, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// A run must end well inside three minutes, whatever hangs.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	res, err := runBenchmark(ctx, cfg, os.Stdout)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validate(cfg config, traceFlag int) error {
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	switch {
	case traceFlag != 0 && traceFlag != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	case cfg.seconds <= 0 || cfg.seconds > 60:
		return fmt.Errorf("--seconds must be in (0, 60], got %g", cfg.seconds)
	case cfg.workdir == "":
		return errors.New("--workdir is required")
	}
	return nil
}

// runBenchmark sets the workload up cfg.setups times (setup_s is the
// median), runs the timed phase or phases, checks the outputs and
// returns the result; the report goes to out.
func runBenchmark(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	spec := workloads[cfg.workload]
	root, err := os.MkdirTemp(mkdirAll(cfg.workdir), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var w workload
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		w, err = spec.setup(ctx, cfg, filepath.Join(root, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rep := newReport(out, cfg, spec.why)
	if !cfg.trace {
		f, err := w.measure(ctx, budget, nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("reading peak RSS: %w", err)
		}
		checks, err := w.check(ctx)
		if err != nil {
			return nil, fmt.Errorf("correctness check failed: %w", err)
		}
		vals := map[string]float64{
			"setup_s":               median(setups),
			"throughput_per_s":      f.opsPerS(),
			"read_records_per_s":    f.readsPerS(),
			"latency_p50_ms":        quantile(f.lat, 0.50),
			"latency_p90_ms":        quantile(f.lat, 0.90),
			"disk_bytes_per_record": ratio(f.diskBytes, f.diskRecs),
			"peak_rss_mb":           rss,
		}
		counts := map[string]string{
			"setup_s":               fmt.Sprintf("n=%d set-ups", len(setups)),
			"throughput_per_s":      fmt.Sprintf("median of %d rates; n=%.0f in %.3fs", len(f.opsRates), f.ops, f.opsTime.Seconds()),
			"read_records_per_s":    fmt.Sprintf("median of %d rates; n=%.0f in %.3fs", len(f.readRates), f.reads, f.readsTime.Seconds()),
			"latency_p50_ms":        fmt.Sprintf("n=%d", len(f.lat)),
			"latency_p90_ms":        fmt.Sprintf("n=%d, %d beyond", len(f.lat), beyond(len(f.lat), 0.90)),
			"disk_bytes_per_record": fmt.Sprintf("n=%.0f records", f.diskRecs),
			"peak_rss_mb":           "timed phase",
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("an end-to-end metric came out as %v: %v", v, vals)
			}
		}
		rep.endToEnd(vals, counts, w.names(), f)
		rep.checks(checks)
		return newResult(f, endToEnd, vals), nil
	}

	untraced, err := w.measure(ctx, budget/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := w.measure(ctx, budget/2, tr)
	if err != nil {
		return nil, err
	}
	checks, err := w.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("correctness check failed: %w", err)
	}
	st := tr.analyze(traced.wall)
	vals, bases := w.layers(tr, st, traced)
	vals["trace.overhead_frac"] = ratio(untraced.opsPerS(), traced.opsPerS()) - 1
	vals["trace.unaccounted_frac"] = st.unaccounted()
	if cfg.tracedir != "" {
		if err := tr.dump(filepath.Join(mkdirAll(cfg.tracedir), "trace-"+cfg.workload+".csv")); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	rep.layers(st, vals, bases, untraced, traced)
	rep.checks(checks)
	if u := st.unaccounted(); u > traceTolerance || u < -traceTolerance {
		return nil, fmt.Errorf("layer self times cover %.1f%% of the traced wall time, outside the %.0f%% tolerance",
			100*(1-u), 100*traceTolerance)
	}
	all := untraced
	all.add(traced)
	return newResult(all, perLayer, vals), nil
}

func newResult(f figures, defs []metricDef, vals map[string]float64) *result {
	res := &result{Correct: true, Attempted: f.attempted, Failed: f.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755) // a failure surfaces at the first file created in it
	return dir
}
