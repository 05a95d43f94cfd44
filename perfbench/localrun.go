package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/sched"
)

// localRun is the local-run workload: a 2-worker scheduler runs the
// design into a fresh JSONL journal (one fsync per unit), then runs it
// again warm, replaying every unit from that journal.
type localRun struct {
	cfg    config
	in     *inputs
	table  [][]map[string]float64
	dir    string
	reg    *obs.Registry // the schedulers' instruments
	cycles int

	checked           int // cycles whose outputs passed every check
	before, after     obs.Snapshot
	rsBefore, rsAfter obs.Snapshot
	tracedRecs        float64 // records journaled in the traced phase
}

func setupLocalRun(ctx context.Context, cfg config, dir string) (workload, error) {
	in, err := newInputs(cfg.seed, cfg.reps)
	if err != nil {
		return nil, err
	}
	l := &localRun{cfg: cfg, in: in, table: in.table(0), dir: dir, reg: obs.NewRegistry()}
	l.reg.Histogram("sched_unit_seconds", "Per-unit wall-clock latency including retries.", fineBuckets)
	// One untimed cycle lets lazy set-up finish before any phase is timed.
	if _, err := l.cycle(ctx, nil); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *localRun) names() map[string]string {
	return map[string]string{
		"setup_s":               "inputs plus one untimed cold+warm cycle",
		"throughput_per_s":      "units_per_s: units executed and journaled per second, cold pass",
		"read_records_per_s":    "resume_units_per_s: units replayed per second, warm pass",
		"latency_p50_ms":        "run latency: one cold pass of the design, every unit journaled",
		"latency_p90_ms":        "run latency: one cold pass of the design, every unit journaled",
		"disk_bytes_per_record": "local journal bytes per record",
		"peak_rss_mb":           "peak resident memory, timed phase",
	}
}

func (l *localRun) measure(ctx context.Context, budget time.Duration, tr *tracer) (figures, error) {
	if tr != nil {
		l.before, l.rsBefore = l.reg.Snapshot(), obs.Default().Snapshot()
	}
	var f figures
	for f.wall < budget {
		if err := ctx.Err(); err != nil {
			return f, err
		}
		g, err := l.cycle(ctx, tr)
		if err != nil {
			return f, err
		}
		f.add(g)
	}
	if tr != nil {
		l.after, l.rsAfter = l.reg.Snapshot(), obs.Default().Snapshot()
		l.tracedRecs = f.diskRecs
	}
	return f, nil
}

// pass is one Execute call: the spans of its units hang off exec.
type pass struct {
	tr   *tracer
	exec spanID
	base int64 // trace id of the pass; a unit's id adds its index
	reps int
}

func (p *pass) unit(row, rep int) int64 { return p.base + int64(row*p.reps+rep) + 1 }

// cycle runs one cold and one warm pass in a fresh journal directory
// and checks both; only the two Execute calls are timed.
func (l *localRun) cycle(ctx context.Context, tr *tracer) (figures, error) {
	l.cycles++
	dir := filepath.Join(l.dir, fmt.Sprintf("cycle-%05d", l.cycles))
	n := l.in.design.NumRuns() * l.in.reps
	var f figures

	cold := &pass{tr: tr, base: int64(l.cycles) << 24, reps: l.in.reps}
	rsCold, st, d, err := l.pass(ctx, dir, cold)
	if err != nil {
		return f, fmt.Errorf("local-run cold pass: %w", err)
	}
	f.ops, f.opsTime, f.wall = float64(st.Executed), d, d
	f.lat = []float64{float64(d) / 1e6}
	f.opsRates = []float64{float64(st.Executed) / d.Seconds()}
	f.attempted, f.failed = int64(n), int64(n-st.Executed)
	if st.Executed != n || st.Replayed != 0 {
		return f, fmt.Errorf("local-run cold pass executed %d and replayed %d units, want %d and 0", st.Executed, st.Replayed, n)
	}
	path := filepath.Join(dir, runstore.SanitizeName(experimentName)+".jsonl")
	info, err := runstore.Inspect(path)
	if err != nil {
		return f, err
	}
	if info.Records != n || info.Distinct != n || info.Torn {
		return f, fmt.Errorf("local-run journal holds %d records (%d distinct, torn=%v), want exactly %d distinct",
			info.Records, info.Distinct, info.Torn, n)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return f, err
	}
	f.diskBytes, f.diskRecs = float64(fi.Size()), float64(n)

	warm := &pass{tr: tr, base: cold.base | 1<<23, reps: l.in.reps}
	rsWarm, st, d, err := l.pass(ctx, dir, warm)
	if err != nil {
		return f, fmt.Errorf("local-run warm pass: %w", err)
	}
	f.reads, f.readsTime, f.wall = float64(st.Replayed), d, f.wall+d
	f.readRates = []float64{float64(st.Replayed) / d.Seconds()}
	f.attempted += int64(n)
	f.failed += int64(n - st.Replayed)
	if st.Executed != 0 || st.Replayed != n {
		return f, fmt.Errorf("local-run warm pass executed %d and replayed %d units, want 0 and %d", st.Executed, st.Replayed, n)
	}
	if !reflect.DeepEqual(rsCold.Rows, rsWarm.Rows) {
		return f, fmt.Errorf("local-run warm pass returned a different ResultSet than the cold pass")
	}
	l.checked++
	return f, os.RemoveAll(dir)
}

// pass runs the design once through a fresh scheduler whose journal is
// wrapped in a timing store.
func (l *localRun) pass(ctx context.Context, dir string, p *pass) (*harness.ResultSet, sched.Stats, time.Duration, error) {
	run := func(a design.Assignment, rep int) (map[string]float64, error) {
		sp := p.tr.start("harness.RunFunc", p.exec, p.unit(l.in.rowOf[cellOf(a)], rep))
		resp, err := l.in.lookup(l.table, a, rep)
		p.tr.end(sp)
		return resp, err
	}
	s := sched.New(sched.Options{
		Workers:    2,
		JournalDir: dir,
		Metrics:    l.reg,
		OpenStore: func(dir, experiment string) (runstore.Store, error) {
			sp := p.tr.start("runstore.Open", p.exec, p.base)
			j, err := runstore.OpenDir(dir, experiment)
			p.tr.end(sp)
			if err != nil {
				return nil, err
			}
			var inner runstore.Store = j
			if l.cfg.wrapStore != nil {
				inner = l.cfg.wrapStore(inner)
			}
			return &timedStore{Store: inner, in: l.in, p: p}, nil
		},
	})
	start := time.Now()
	p.exec = p.tr.start("sched.Execute", noSpan, p.base)
	rs, err := s.Execute(ctx, l.in.experiment(experimentName, run))
	p.tr.end(p.exec)
	return rs, s.LastStats(), time.Since(start), err
}

// timedStore wraps the scheduler's store with a span around every call.
type timedStore struct {
	runstore.Store
	in *inputs
	p  *pass
}

func (s *timedStore) Append(rec runstore.Record) error {
	sp := s.p.tr.start("runstore.Append", s.p.exec, s.p.unit(rec.Row, rec.Replicate))
	err := s.Store.Append(rec)
	s.p.tr.end(sp)
	return err
}

func (s *timedStore) Lookup(experiment, hash string, replicate int) (runstore.Record, bool) {
	sp := s.p.tr.start("runstore.Lookup", s.p.exec, s.p.unit(s.in.rowOfHash[hash], replicate))
	rec, ok := s.Store.Lookup(experiment, hash, replicate)
	s.p.tr.end(sp)
	return rec, ok
}

func (s *timedStore) ReplicateCount(experiment, hash string) int {
	sp := s.p.tr.start("runstore.ReplicateCount", s.p.exec, s.p.base)
	n := s.Store.ReplicateCount(experiment, hash)
	s.p.tr.end(sp)
	return n
}

func (l *localRun) check(ctx context.Context) ([]string, error) {
	if l.checked != l.cycles {
		return nil, fmt.Errorf("local-run: %d of %d cycles passed their checks", l.checked, l.cycles)
	}
	n := l.in.design.NumRuns() * l.in.reps
	return []string{
		fmt.Sprintf("local-run: in each of %d cycles the journal held exactly %d distinct records (%d rows x %d replicates)",
			l.cycles, n, l.in.design.NumRuns(), l.in.reps),
		fmt.Sprintf("local-run: in each of %d cycles the warm pass executed 0 units, replayed %d and returned the cold pass's ResultSet", l.cycles, n),
	}, nil
}

func (l *localRun) layers(tr *tracer, st selfTimes, traced figures) (map[string]float64, map[string]string) {
	appends := tr.durations("runstore.Append")
	fsyncs := counterDelta(l.rsBefore, l.rsAfter, "runstore_fsyncs_total")
	bytes := counterDelta(l.rsBefore, l.rsAfter, "runstore_append_bytes_total")
	vals := map[string]float64{
		"harness.run_s":                   st.busy["harness.RunFunc"],
		"harness.runs":                    float64(st.count["harness.RunFunc"]),
		"sched.execute_s":                 st.busy["sched.Execute"],
		"sched.self_s":                    st.self["sched.Execute"],
		"sched.units_executed":            counterDelta(l.before, l.after, "sched_units_executed_total"),
		"sched.units_replayed":            counterDelta(l.before, l.after, "sched_units_replayed_total"),
		"sched.units_retried":             counterDelta(l.before, l.after, "sched_units_retried_total"),
		"sched.unit_p50_ms":               1e3 * histQuantile(histDelta(l.before, l.after, "sched_unit_seconds"), 0.5),
		"runstore.open_s":                 st.busy["runstore.Open"],
		"runstore.append_p50_us":          1e6 * quantile(appends, 0.5),
		"runstore.append_p99_us":          1e6 * quantile(appends, 0.99),
		"runstore.append_s":               st.busy["runstore.Append"],
		"runstore.fsyncs_per_record":      ratio(fsyncs, l.tracedRecs),
		"runstore.write_bytes_per_record": ratio(bytes, l.tracedRecs),
		"runstore.scan_records":           traced.reads,
	}
	bases := map[string]string{
		"runstore.append_p50_us":          fmt.Sprintf("%d appends", len(appends)),
		"runstore.append_p99_us":          fmt.Sprintf("%d appends", len(appends)),
		"runstore.fsyncs_per_record":      fmt.Sprintf("%.0f fsyncs / %.0f journaled records", fsyncs, l.tracedRecs),
		"runstore.write_bytes_per_record": fmt.Sprintf("%.0f bytes / %.0f journaled records", bytes, l.tracedRecs),
		"runstore.scan_records":           "records the read path decoded (benchmark count; the runstore_scan_records_total series counts only Store.Scan, which no workload calls)",
		"sched.self_s":                    "Execute wall time with no runner or store call of its own running",
	}
	return vals, bases
}

func (l *localRun) close() error { return nil }
