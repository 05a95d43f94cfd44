package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/design"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/sched"
)

// fleetIngest is the fleet-ingest workload: two collector workers, one
// scheduler worker each, stream the design in binary batches of 32 to
// a 2-shard daemon on loopback; the shard stores are then merged.
type fleetIngest struct {
	in       *inputs
	table    [][]map[string]float64
	dir      string
	d        *daemon       // the current cycle's daemon
	dreg     *obs.Registry // the daemon's instruments
	wreg     *obs.Registry // both workers' instruments, schedulers included
	rts      [2]*timedTransport
	acct     *httpAcct
	cycles   int
	acked    int64  // records acknowledged, all cycles
	refName  string // the experiment checked byte for byte against a local run
	checked  int
	tracedRe float64 // records acknowledged in the traced phase

	before, after     obs.Snapshot // workers
	dBefore, dAfter   obs.Snapshot // daemon
	rsBefore, rsAfter obs.Snapshot // runstore, process-wide
}

// timedTransport times every collector call of one worker and records
// it as a span under the worker's current Execute span.
type timedTransport struct {
	base   http.RoundTripper
	acct   *httpAcct
	tr     atomic.Pointer[tracer]
	parent atomic.Int32
	trace  atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.acct.observe(ep, start, end, req.ContentLength, resp, err)
	t.tr.Load().record("collector.http_"+ep, spanID(t.parent.Load()), t.trace.Load(), start, end)
	return resp, err
}

// endpoint names a collector path: "/v1/lease/acquire" -> "acquire".
func endpoint(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// httpAcct counts collector requests by endpoint as the clients see
// them. A 429, a 503 or any other non-2xx answer is a refused attempt,
// even when a retry later succeeds; so is a request that got no answer.
// The one exception is acquire's 409, the protocol's "every shard is
// leased, ask again" poll, counted as busy: no work is lost or redone.
type httpAcct struct {
	mu        sync.Mutex
	attempts  map[string]int64
	refused   map[string]int64
	lat       map[string][]float64 // ms; a refused ingest is +Inf
	busy      int64
	wireBytes int64 // bodies of acknowledged ingest requests
	first     time.Time
	last      time.Time
}

func newHTTPAcct() *httpAcct {
	a := &httpAcct{}
	a.reset()
	return a
}

func (a *httpAcct) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempts, a.refused, a.lat = map[string]int64{}, map[string]int64{}, map[string][]float64{}
	a.busy, a.wireBytes = 0, 0
	a.first, a.last = time.Time{}, time.Time{}
}

func (a *httpAcct) observe(ep string, start, end time.Time, size int64, resp *http.Response, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempts[ep]++
	ms := float64(end.Sub(start)) / 1e6
	switch {
	case err != nil || resp.StatusCode >= 300 && !(ep == "acquire" && resp.StatusCode == http.StatusConflict):
		a.refused[ep]++
		ms = math.Inf(1)
	case resp.StatusCode == http.StatusConflict:
		a.busy++
	case ep == "ingest":
		a.wireBytes += size
	}
	a.lat[ep] = append(a.lat[ep], ms)
	if ep == "acquire" && (a.first.IsZero() || start.Before(a.first)) {
		a.first = start
	}
	if ep == "release" && end.After(a.last) {
		a.last = end
	}
}

// window returns and clears the span from the first acquire to the last
// release seen since the previous call.
func (a *httpAcct) window() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.last.Sub(a.first)
	a.first, a.last = time.Time{}, time.Time{}
	return d
}

// takeLat returns and clears the latencies of one endpoint observed so
// far.
func (a *httpAcct) takeLat(ep string) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	lat := a.lat[ep]
	a.lat[ep] = nil
	return lat
}

func (a *httpAcct) totals() (attempts, refused int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range a.attempts {
		attempts += n
	}
	for _, n := range a.refused {
		refused += n
	}
	return attempts, refused
}

func setupFleetIngest(ctx context.Context, cfg config, dir string) (workload, error) {
	in, err := newInputs(cfg.seed, cfg.reps)
	if err != nil {
		return nil, err
	}
	fl := &fleetIngest{in: in, table: in.table(0), dir: dir,
		dreg: obs.NewRegistry(), wreg: obs.NewRegistry(), acct: newHTTPAcct()}
	fl.dreg.Histogram("collector_commit_seconds",
		"Ingest batch commit latency: submit to the group-commit engine until its fsync returned.", fineBuckets)
	fl.wreg.Histogram("sched_unit_seconds", "Per-unit wall-clock latency including retries.", fineBuckets)
	for i := range fl.rts {
		fl.rts[i] = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}, acct: fl.acct}
	}
	// One untimed cycle lets lazy set-up finish before any phase is timed.
	if _, err := fl.cycle(ctx, nil); err != nil {
		fl.close()
		return nil, err
	}
	return fl, nil
}

func (fl *fleetIngest) names() map[string]string {
	return map[string]string{
		"setup_s":               "start the daemon, create and register 2 workers, one untimed cycle",
		"throughput_per_s":      "collect_records_per_s: records acknowledged per second, first acquire to last release",
		"read_records_per_s":    "merge_records_per_s: records per second through repro.Merge of the shard stores",
		"latency_p50_ms":        "ingest_p50_ms: each ingest request as the client sees it (refused counts as +Inf)",
		"latency_p90_ms":        "ingest_p90_ms: each ingest request as the client sees it (refused counts as +Inf)",
		"disk_bytes_per_record": "collector shard-store bytes per stored record",
		"peak_rss_mb":           "peak resident memory, timed phase",
	}
}

func (fl *fleetIngest) measure(ctx context.Context, budget time.Duration, tr *tracer) (figures, error) {
	fl.acct.reset()
	if tr != nil {
		fl.before, fl.dBefore, fl.rsBefore = fl.wreg.Snapshot(), fl.dreg.Snapshot(), obs.Default().Snapshot()
	}
	for _, rt := range fl.rts {
		rt.tr.Store(tr)
	}
	var f figures
	for f.wall < budget {
		if err := ctx.Err(); err != nil {
			return f, err
		}
		g, err := fl.cycle(ctx, tr)
		if err != nil {
			return f, err
		}
		f.add(g)
	}
	f.attempted, f.failed = fl.acct.totals()
	if tr != nil {
		fl.after, fl.dAfter, fl.rsAfter = fl.wreg.Snapshot(), fl.dreg.Snapshot(), obs.Default().Snapshot()
		fl.tracedRe = f.ops
	}
	return f, nil
}

// cycle collects one experiment into a fresh daemon through two fresh
// workers, closes the daemon, checks its stores and merges them. Only
// the collection and the merge are timed: a fresh daemon per cycle
// keeps the collector's state the same size from the first cycle to
// the last, so the figures do not drift with the run's length.
func (fl *fleetIngest) cycle(ctx context.Context, tr *tracer) (figures, error) {
	fl.cycles++
	name := fmt.Sprintf("%s #%d", experimentName, fl.cycles)
	dir := filepath.Join(fl.dir, fmt.Sprintf("cycle-%05d", fl.cycles))
	storeDir := filepath.Join(dir, "collector")
	n := int64(fl.in.design.NumRuns() * fl.in.reps)
	var f figures
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return f, err
	}
	var err error
	if fl.d, err = startDaemon(collector.Config{Dir: storeDir, Shards: 2, Metrics: fl.dreg}); err != nil {
		return f, err
	}
	var workers [2]*client.Worker
	for i := range workers {
		workers[i], err = client.NewWorker(client.Options{
			URL:      fl.d.url,
			Worker:   fmt.Sprintf("bench-%d", i),
			Workers:  1,
			SpoolDir: filepath.Join(dir, fmt.Sprintf("spool-%d", i)),
			// The worker that finishes its shard first polls for the
			// other's release instead of idling the default second.
			AcquireWait: 5 * time.Millisecond,
			BinaryWire:  true,
			HTTPClient:  &http.Client{Transport: fl.rts[i]},
			Metrics:     fl.wreg,
		})
		if err != nil {
			return f, err
		}
	}

	fl.acct.window()
	var errs [2]error
	var wg sync.WaitGroup
	start := time.Now()
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trace := int64(fl.cycles)<<24 | int64(i)<<23
			sp := tr.start("client.Execute", noSpan, trace)
			fl.rts[i].parent.Store(int32(sp))
			fl.rts[i].trace.Store(trace)
			_, errs[i] = w.Execute(ctx, fl.in.experiment(name, fl.runner(tr, sp, trace)))
			tr.end(sp)
		}()
	}
	wg.Wait()
	collect := time.Since(start)
	f.opsTime = fl.acct.window()
	for i, err := range errs {
		if err != nil {
			return f, fmt.Errorf("fleet-ingest worker %d: %w", i, err)
		}
	}
	acked := workers[0].Report().Streamed + workers[1].Report().Streamed
	if err := fl.stop(); err != nil {
		return f, fmt.Errorf("fleet-ingest: closing the daemon: %w", err)
	}
	if acked != n {
		return f, fmt.Errorf("fleet-ingest: collector acknowledged %d records of %s, want %d", acked, name, n)
	}
	s, err := shardstore.Open(storeDir, name, 2)
	if err != nil {
		return f, err
	}
	reopened, torn := s.Len(), s.Torn()
	if err := s.Close(); err != nil {
		return f, err
	}
	if int64(reopened) != acked || torn {
		return f, fmt.Errorf("fleet-ingest: reopened shard stores of %s hold %d records (torn=%v), %d were acknowledged",
			name, reopened, torn, acked)
	}

	srcs := repro.ShardPaths(storeDir, name, 2)
	var stored int64
	for _, p := range srcs {
		fi, err := os.Stat(p)
		if err != nil {
			return f, err
		}
		stored += fi.Size()
	}
	merged := fl.mergedPath(name)
	sp := tr.start("runstore.Merge", noSpan, int64(fl.cycles)<<24)
	t0 := time.Now()
	ms, err := repro.Merge(merged, srcs...)
	md := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return f, fmt.Errorf("fleet-ingest merge: %w", err)
	}
	if int64(ms.Kept) != acked || len(ms.Conflicts) != 0 {
		return f, fmt.Errorf("fleet-ingest: merge kept %d records with %d conflicts, want the %d acknowledged and none",
			ms.Kept, len(ms.Conflicts), acked)
	}
	if fl.refName == "" && tr == nil && fl.cycles > 1 {
		fl.refName = name // kept for the byte-for-byte check
	} else if err := os.Remove(merged); err != nil {
		return f, err
	}
	fl.checked++
	fl.acked += acked
	f.wall = collect + md
	f.ops = float64(acked)
	f.opsRates = []float64{f.ops / f.opsTime.Seconds()}
	f.reads, f.readsTime = float64(ms.Kept), md
	f.readRates = []float64{f.reads / md.Seconds()}
	f.diskBytes, f.diskRecs = float64(stored), float64(ms.Kept)
	f.lat = fl.acct.takeLat("ingest")
	return f, os.RemoveAll(dir)
}

func (fl *fleetIngest) mergedPath(name string) string {
	return filepath.Join(fl.dir, runstore.SanitizeName(name)+".merged.jsonl")
}

func (fl *fleetIngest) runner(tr *tracer, parent spanID, trace int64) func(design.Assignment, int) (map[string]float64, error) {
	return func(a design.Assignment, rep int) (map[string]float64, error) {
		sp := tr.start("harness.RunFunc", parent, trace)
		resp, err := fl.in.lookup(fl.table, a, rep)
		tr.end(sp)
		return resp, err
	}
}

// check compares one merged, compacted experiment byte for byte with
// a local run of the same seed, merged and compacted the same way. The
// per-cycle checks ran as each cycle ended.
func (fl *fleetIngest) check(ctx context.Context) ([]string, error) {
	if fl.checked != fl.cycles {
		return nil, fmt.Errorf("fleet-ingest: %d of %d cycles passed their checks", fl.checked, fl.cycles)
	}
	if fl.refName == "" {
		return nil, fmt.Errorf("fleet-ingest: no untraced cycle was kept for the byte-for-byte check")
	}
	local, err := fl.localReference(ctx)
	if err != nil {
		return nil, err
	}
	collected, err := compacted(fl.mergedPath(fl.refName))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(local, collected) {
		return nil, fmt.Errorf("fleet-ingest: merged and compacted %q (%d bytes) differs from the local run of the same seed (%d bytes)",
			fl.refName, len(collected), len(local))
	}
	return []string{
		fmt.Sprintf("fleet-ingest: in each of %d cycles the daemon acknowledged every record, and after it closed its reopened shard stores and the merge held exactly the %d acknowledged (%d in all)",
			fl.cycles, fl.in.design.NumRuns()*fl.in.reps, fl.acked),
		fmt.Sprintf("fleet-ingest: %q merged and compacted is byte-identical (%d bytes) to the local run's compacted journal", fl.refName, len(local)),
	}, nil
}

// localReference runs refName as local-run does and returns its
// journal canonicalized by a merge, then compacted.
func (fl *fleetIngest) localReference(ctx context.Context) ([]byte, error) {
	dir := filepath.Join(fl.dir, "reference")
	s := sched.New(sched.Options{Workers: 2, JournalDir: dir, Metrics: obs.NewRegistry()})
	if _, err := s.Execute(ctx, fl.in.experiment(fl.refName, fl.runner(nil, noSpan, 0))); err != nil {
		return nil, fmt.Errorf("fleet-ingest local reference: %w", err)
	}
	merged := filepath.Join(dir, "canonical.jsonl")
	if _, err := repro.Merge(merged, filepath.Join(dir, runstore.SanitizeName(fl.refName)+".jsonl")); err != nil {
		return nil, err
	}
	return compacted(merged)
}

func compacted(path string) ([]byte, error) {
	dst := path + ".compact"
	if _, err := repro.Compact(path, dst); err != nil {
		return nil, err
	}
	return os.ReadFile(dst)
}

func (fl *fleetIngest) layers(tr *tracer, st selfTimes, traced figures) (map[string]float64, map[string]string) {
	a := fl.acct
	a.mu.Lock()
	defer a.mu.Unlock()
	var refused int64
	for _, n := range a.refused {
		refused += n
	}
	okIngest := float64(a.attempts["ingest"] - a.refused["ingest"])
	commits := counterDelta(fl.dBefore, fl.dAfter, "collector_group_commits_total")
	fsyncs := counterDelta(fl.rsBefore, fl.rsAfter, "runstore_fsyncs_total")
	wrote := counterDelta(fl.rsBefore, fl.rsAfter, "runstore_append_bytes_total")
	commit := histDelta(fl.dBefore, fl.dAfter, "collector_commit_seconds")
	vals := map[string]float64{
		"harness.run_s":                   st.busy["harness.RunFunc"],
		"harness.runs":                    float64(st.count["harness.RunFunc"]),
		"sched.units_executed":            counterDelta(fl.before, fl.after, "sched_units_executed_total"),
		"sched.units_replayed":            counterDelta(fl.before, fl.after, "sched_units_replayed_total"),
		"sched.units_retried":             counterDelta(fl.before, fl.after, "sched_units_retried_total"),
		"sched.unit_p50_ms":               1e3 * histQuantile(histDelta(fl.before, fl.after, "sched_unit_seconds"), 0.5),
		"runstore.fsyncs_per_record":      ratio(fsyncs, fl.tracedRe),
		"runstore.write_bytes_per_record": ratio(wrote, fl.tracedRe),
		"runstore.scan_records":           traced.reads,
		"runstore.merge_s":                st.busy["runstore.Merge"],
		"client.acquire_ms":               median(a.lat["acquire"]),
		"client.release_ms":               median(a.lat["release"]),
		"client.snapshot_ms":              median(a.lat["snapshot"]),
		"client.renew_requests":           float64(a.attempts["renew"]),
		"client.ingest_requests":          float64(a.attempts["ingest"]),
		"client.acquire_busy":             float64(a.busy),
		"client.wire_bytes_per_record":    ratio(float64(a.wireBytes), fl.tracedRe),
		"client.refused":                  float64(refused),
		"client.backpressure_wait_ms":     counterDelta(fl.before, fl.after, "worker_backpressure_wait_ms_total"),
		"client.transport_retries":        counterDelta(fl.before, fl.after, "worker_transport_retries_total"),
		"collector.commit_p50_ms":         1e3 * histQuantile(commit, 0.5),
		"collector.commit_p99_ms":         1e3 * histQuantile(commit, 0.99),
		"collector.ingest_rejected":       counterDelta(fl.dBefore, fl.dAfter, "collector_ingest_rejected_total"),
		"collector.batches_per_fsync":     ratio(okIngest, commits),
	}
	bases := map[string]string{
		"runstore.fsyncs_per_record":      fmt.Sprintf("%.0f fsyncs (spools + shard stores) / %.0f acknowledged records", fsyncs, fl.tracedRe),
		"runstore.write_bytes_per_record": fmt.Sprintf("%.0f bytes (spools + shard stores) / %.0f acknowledged records", wrote, fl.tracedRe),
		"runstore.scan_records":           "records the read path decoded (benchmark count; the runstore_scan_records_total series counts only Store.Scan, which no workload calls)",
		"client.wire_bytes_per_record":    fmt.Sprintf("%d ingest body bytes / %.0f acknowledged records", a.wireBytes, fl.tracedRe),
		"collector.batches_per_fsync":     fmt.Sprintf("%.0f acknowledged batches / %.0f group commits", okIngest, commits),
		"collector.commit_p50_ms":         fmt.Sprintf("%d commits", commit.Count),
		"collector.commit_p99_ms":         fmt.Sprintf("%d commits", commit.Count),
		"client.acquire_ms":               fmt.Sprintf("%d acquires", len(a.lat["acquire"])),
		"client.acquire_busy":             "acquire answered 409: every shard leased, poll again",
	}
	return vals, bases
}

// stop closes the current cycle's daemon, if one is running.
func (fl *fleetIngest) stop() error {
	if fl.d == nil {
		return nil
	}
	err := fl.d.stop()
	fl.d = nil
	for _, rt := range fl.rts {
		rt.base.(*http.Transport).CloseIdleConnections()
	}
	return err
}

func (fl *fleetIngest) close() error { return fl.stop() }
