package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// historyQuery is the history-query workload: a directory of seeded runs
// in all four catalog formats, a cold warehouse build over it, then two
// closed-loop clients querying a collector daemon that serves it while
// the load generator keeps landing run files.
type historyQuery struct {
	cfg       config
	in        *inputs // the seeded runs
	small     *inputs // the dropped runs: fewer replicates
	root      string
	dir       string // the served directory
	d         *daemon
	hc        *http.Client
	ht        *http.Transport
	payloads  [][]byte // contents of the dropped run files, cycled
	mtime0    time.Time
	drops     atomic.Int64
	builds    int
	lastIndex int64  // bytes of the last cold-built index
	tracked   string // the cell whose history is checked at the end
	replay    replayStats

	mu       sync.Mutex // guards what the two query clients share
	non200   int64
	answered int64
	events   []queryEvent // the traced phase's queries, in issue order
}

// queryEvent is one query of the traced phase: what was asked, whether
// a run file was dropped just before it, and how long the HTTP request
// took.
type queryEvent struct {
	n    int64
	kind string
	cell string
	drop int64 // drop number, -1 for none
	ms   float64
}

// The fixed query mix: of every ten queries seven ask for one seeded
// cell's history, one each for runs, trends and regressions. Kinds are
// interleaved so each client sees all of them.
var queryMix = [10]string{
	warehouse.KindHistory, warehouse.KindRuns, warehouse.KindHistory, warehouse.KindHistory,
	warehouse.KindTrends, warehouse.KindHistory, warehouse.KindHistory, warehouse.KindRegressions,
	warehouse.KindHistory, warehouse.KindHistory,
}

var storeExts = []string{".jsonl", ".binj", ".arch", ".archz"}

func setupHistoryQuery(ctx context.Context, cfg config, dir string) (workload, error) {
	in, err := newInputs(cfg.seed, max(cfg.reps/2, 2))
	if err != nil {
		return nil, err
	}
	small, err := newInputs(cfg.seed, 2)
	if err != nil {
		return nil, err
	}
	h := &historyQuery{cfg: cfg, in: in, small: small, root: dir, dir: filepath.Join(dir, "runs"),
		mtime0: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	h.tracked = in.hashes[newRNG(cfg.seed, 7).intn(in.design.NumRuns())]
	for _, d := range []string{h.dir, filepath.Join(h.dir, ".staging"), filepath.Join(dir, "builds")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.baseRuns; i++ {
		ext := storeExts[i%len(storeExts)]
		path := filepath.Join(h.dir, fmt.Sprintf("run-%03d%s", i, ext))
		if err := writeRun(path, in.records(experimentName, i+1), h.mtime(i)); err != nil {
			return nil, err
		}
	}
	// The payloads are encoded by the journal itself, then landed as
	// plain file writes by the load generator.
	for p := 0; p < 2*cfg.slots+1; p++ {
		path := filepath.Join(dir, fmt.Sprintf("payload-%d.jsonl", p))
		if err := writeRun(path, small.records(experimentName, 1000+p), h.mtime0); err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		h.payloads = append(h.payloads, data)
	}
	for k := 0; k < cfg.slots; k++ {
		if err := h.drop(h.dir); err != nil {
			return nil, err
		}
	}
	h.d, err = startDaemon(collector.Config{Dir: h.dir, Metrics: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	h.ht = &http.Transport{MaxIdleConnsPerHost: 2}
	h.hc = &http.Client{Transport: h.ht}
	// The daemon builds its index on the first query; do that here.
	if _, err := h.get(ctx, url.Values{"kind": {warehouse.KindRuns}}); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *historyQuery) mtime(i int) time.Time { return h.mtime0.Add(time.Duration(i) * time.Second) }

// writeRun writes one run's records at path in the format its extension
// names: a journal directly, any other format by merging the journal
// into it. The file gets modification time mt: the warehouse orders
// runs by it.
func writeRun(path string, recs []runstore.Record, mt time.Time) error {
	src := path
	if filepath.Ext(path) != ".jsonl" {
		src = path + ".tmp.jsonl"
	}
	j, err := runstore.Open(src)
	if err != nil {
		return err
	}
	if err := j.AppendBatch(recs); err != nil {
		j.Close()
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	if src != path {
		if _, err := repro.Merge(path, src); err != nil {
			return err
		}
		if err := os.Remove(src); err != nil {
			return err
		}
	}
	return os.Chtimes(path, mt, mt)
}

// drop lands the next run file in dir: it replaces one of the slot
// files with a newer run, so the next refresh has a file to ingest.
func (h *historyQuery) drop(dir string) error {
	return h.dropNumber(dir, h.drops.Add(1)-1)
}

func (h *historyQuery) dropNumber(dir string, k int64) error {
	slot := filepath.Join(dir, fmt.Sprintf("slot-%d.jsonl", k%int64(h.cfg.slots)))
	tmp := filepath.Join(dir, ".staging", fmt.Sprintf("drop-%d", k))
	if err := os.WriteFile(tmp, h.payloads[k%int64(len(h.payloads))], 0o644); err != nil {
		return err
	}
	mt := h.mtime(h.cfg.baseRuns + int(k))
	if err := os.Chtimes(tmp, mt, mt); err != nil {
		return err
	}
	return os.Rename(tmp, slot)
}

func (h *historyQuery) names() map[string]string {
	return map[string]string{
		"setup_s":               "write the seeded runs in four formats, start the daemon, build its index",
		"throughput_per_s":      "queries_per_s: /v1/query answers per second, 2 closed-loop clients",
		"read_records_per_s":    "index_build_records_per_s: records per second through a cold warehouse build",
		"latency_p50_ms":        "query_p50_ms: each GET /v1/query, send to last body byte (non-200 counts as +Inf)",
		"latency_p90_ms":        "query_p90_ms: each GET /v1/query, send to last body byte (non-200 counts as +Inf)",
		"disk_bytes_per_record": "warehouse index bytes per indexed record, cold build",
		"peak_rss_mb":           "peak resident memory, timed phase",
	}
}

// measure spends a fifth of the budget on cold index builds and the
// rest on the query loop; a traced phase then replays its query
// sequence directly against a warehouse.
func (h *historyQuery) measure(ctx context.Context, budget time.Duration, tr *tracer) (figures, error) {
	var f figures
	replayDir := filepath.Join(h.root, "replay")
	if tr != nil {
		if err := copyRuns(h.dir, replayDir); err != nil {
			return f, err
		}
		h.events = nil
	}
	for f.readsTime < budget/5 {
		if err := ctx.Err(); err != nil {
			return f, err
		}
		recs, d, err := h.build(tr)
		if err != nil {
			return f, err
		}
		f.reads += float64(recs)
		f.readsTime += d
		f.readRates = append(f.readRates, float64(recs)/d.Seconds())
		f.diskBytes += float64(h.lastIndex)
		f.diskRecs += float64(recs)
	}
	f.wall = f.readsTime

	lat, rates, d, err := h.queries(ctx, budget-f.wall, tr)
	if err != nil {
		return f, err
	}
	f.lat, f.ops, f.opsTime, f.opsRates = lat, float64(len(lat)), d, rates
	f.wall += d
	f.attempted = int64(len(lat))
	for _, ms := range lat {
		if math.IsInf(ms, 1) {
			f.failed++
			f.ops--
		}
	}
	if tr != nil {
		d, err := h.replayEvents(replayDir, tr)
		if err != nil {
			return f, err
		}
		f.wall += d
	}
	return f, nil
}

// build is one cold index build over the served directory.
func (h *historyQuery) build(tr *tracer) (int, time.Duration, error) {
	h.builds++
	idx := filepath.Join(h.root, "builds", fmt.Sprintf("build-%d.idx", h.builds))
	sp := tr.start("warehouse.Build", noSpan, int64(h.builds))
	start := time.Now()
	wh, err := warehouse.Open(h.dir, warehouse.Options{IndexPath: idx, Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, 0, err
	}
	rs, err := wh.Refresh()
	d := time.Since(start)
	tr.end(sp)
	if closeErr := wh.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(idx)
	if err != nil {
		return 0, 0, err
	}
	h.lastIndex = fi.Size()
	return rs.Records, d, os.Remove(idx)
}

// rateSlice is the width of the time slices queries_per_s is the median
// of.
const rateSlice = 250 * time.Millisecond

// queries runs the two closed-loop clients for budget and returns every
// request's latency in ms (+Inf for a non-200 answer) and the answers
// per second in each full time slice.
func (h *historyQuery) queries(ctx context.Context, budget time.Duration, tr *tracer) ([]float64, []float64, time.Duration, error) {
	var seq atomic.Int64
	var lats [2][]float64
	var done [2][]time.Duration // completion times since start
	var errs [2]error
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for c := range lats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pick := newRNG(h.cfg.seed, uint64(100+c))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				n := seq.Add(1) - 1
				ev := queryEvent{n: n, kind: queryMix[n%int64(len(queryMix))], drop: -1}
				if n > 0 && n%int64(h.cfg.dropEvery) == 0 {
					sp := tr.start("bench.drop", noSpan, n)
					ev.drop = h.drops.Add(1) - 1
					err := h.dropNumber(h.dir, ev.drop)
					tr.end(sp)
					if err != nil {
						errs[c] = err
						return
					}
				}
				q := url.Values{"kind": {ev.kind}}
				switch ev.kind {
				case warehouse.KindHistory:
					ev.cell = h.in.hashes[pick.intn(len(h.in.hashes))]
					q.Set("experiment", experimentName)
					q.Set("cell", ev.cell)
					q.Set("response", "latency_ms")
				case warehouse.KindTrends:
					q.Set("experiment", experimentName)
				}
				t0 := time.Now()
				status, err := h.get(ctx, q)
				t1 := time.Now()
				if err != nil {
					errs[c] = err
					return
				}
				tr.record("collector.http_query", noSpan, n, t0, t1)
				ev.ms = float64(t1.Sub(t0)) / 1e6
				if status != http.StatusOK {
					ev.ms = math.Inf(1)
				}
				lats[c] = append(lats[c], ev.ms)
				if status == http.StatusOK {
					done[c] = append(done[c], t1.Sub(start))
				}
				if tr != nil {
					h.mu.Lock()
					h.events = append(h.events, ev)
					h.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, nil, d, err
		}
	}
	counts := make([]float64, int(d/rateSlice))
	for _, ts := range done {
		for _, t := range ts {
			if i := int(t / rateSlice); i < len(counts) {
				counts[i]++
			}
		}
	}
	for i := range counts {
		counts[i] /= rateSlice.Seconds()
	}
	if len(counts) == 0 { // a phase shorter than one slice
		counts = []float64{float64(len(done[0])+len(done[1])) / d.Seconds()}
	}
	return append(lats[0], lats[1]...), counts, d, nil
}

// get sends one GET /v1/query and checks that a 200 answer decodes as a
// result of the kind asked for. It returns the status; a non-200 answer
// is counted, not an error.
func (h *historyQuery) get(ctx context.Context, q url.Values) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.d.url+collector.PathQuery+"?"+q.Encode(), nil)
	if err != nil {
		return 0, err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("history-query: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("history-query: reading answer: %w", err)
	}
	h.mu.Lock()
	h.answered++
	if resp.StatusCode != http.StatusOK {
		h.non200++
	}
	h.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var res warehouse.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, fmt.Errorf("history-query: answer to %s does not decode: %w", q.Encode(), err)
	}
	if res.Kind != q.Get("kind") {
		return 0, fmt.Errorf("history-query: asked for %s, answered %s", q.Get("kind"), res.Kind)
	}
	return resp.StatusCode, nil
}

// copyRuns copies every run file of src, with its modification time,
// into a fresh dst.
func copyRuns(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dst, ".staging"), 0o755); err != nil {
		return err
	}
	files, err := runFiles(src)
	if err != nil {
		return err
	}
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		fi, err := os.Stat(filepath.Join(src, name))
		if err != nil {
			return err
		}
		p := filepath.Join(dst, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return err
		}
		if err := os.Chtimes(p, fi.ModTime(), fi.ModTime()); err != nil {
			return err
		}
	}
	return nil
}

// runFiles lists the run files of dir: every store file except hidden
// ones and the daemon's control-state journal.
func runFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || name == collector.StateFile || !slices.Contains(storeExts, filepath.Ext(name)) {
			continue
		}
		out = append(out, name)
	}
	return out, nil
}

// replayStats are the warehouse's own costs, measured by calling
// Refresh and Query directly in the traced phase's query order.
type replayStats struct {
	refresh  []float64            // ms per refresh
	ingested int                  // refreshes that read a file
	records  int                  // records those refreshes read
	query    map[string][]float64 // kind -> ms per query
	perQuery []float64            // ms of refresh + query, by event
}

// replayEvents replays the traced query sequence against a warehouse
// over a copy of the directory as it stood when the phase began.
func (h *historyQuery) replayEvents(dir string, tr *tracer) (time.Duration, error) {
	h.mu.Lock()
	events := append([]queryEvent(nil), h.events...)
	h.mu.Unlock()
	sort.Slice(events, func(i, j int) bool { return events[i].n < events[j].n })
	wh, err := warehouse.Open(dir, warehouse.Options{IndexPath: filepath.Join(h.root, "replay.idx"), Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, err
	}
	defer wh.Close()
	if _, err := wh.Refresh(); err != nil { // the cold build, not a per-query refresh
		return 0, err
	}
	rp := replayStats{query: map[string][]float64{}}
	start := time.Now()
	for _, ev := range events {
		if ev.drop >= 0 {
			sp := tr.start("bench.drop", noSpan, ev.n)
			err := h.dropNumber(dir, ev.drop)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
		sp := tr.start("warehouse.Refresh", noSpan, ev.n)
		t0 := time.Now()
		rs, err := wh.Refresh()
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		req := warehouse.Request{Kind: ev.kind}
		switch ev.kind {
		case warehouse.KindHistory:
			req.Experiment, req.Cell, req.Response = experimentName, ev.cell, "latency_ms"
		case warehouse.KindTrends:
			req.Experiment = experimentName
		}
		sp = tr.start("warehouse.Query", noSpan, ev.n)
		_, err = wh.Query(req)
		t2 := time.Now()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		rp.refresh = append(rp.refresh, float64(t1.Sub(t0))/1e6)
		if rs.Ingested > 0 {
			rp.ingested++
			rp.records += rs.Records
		}
		rp.query[ev.kind] = append(rp.query[ev.kind], float64(t2.Sub(t1))/1e6)
		rp.perQuery = append(rp.perQuery, ev.ms-float64(t2.Sub(t0))/1e6)
	}
	h.replay = rp
	h.events = events
	return time.Since(start), nil
}

// check verifies every answer was a 200, then recomputes the tracked
// cell's history by streaming every raw store file and compares it with
// the daemon's answer.
func (h *historyQuery) check(ctx context.Context) ([]string, error) {
	h.mu.Lock()
	non200, answered := h.non200, h.answered
	h.mu.Unlock()
	if non200 > 0 {
		return nil, fmt.Errorf("history-query: %d of %d answers were not 200", non200, answered)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.d.url+collector.PathQuery+"?"+url.Values{
		"kind": {warehouse.KindHistory}, "experiment": {experimentName}, "cell": {h.tracked}, "response": {"latency_ms"},
	}.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var res warehouse.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("history-query: final history answer: status %d, %v", resp.StatusCode, err)
	}
	want, err := recomputeHistory(h.dir, h.tracked)
	if err != nil {
		return nil, err
	}
	if len(res.History) != len(want) {
		return nil, fmt.Errorf("history-query: history of cell %s has %d points, the raw stores give %d", h.tracked, len(res.History), len(want))
	}
	for i, p := range res.History {
		w := want[i]
		if p.Run != w.run || p.N != w.n || !near(p.Mean, w.mean) || !near(p.Variance, w.variance()) {
			return nil, fmt.Errorf("history-query: point %d of cell %s is %s n=%d mean=%g var=%g, the raw stores give %s n=%d mean=%g var=%g",
				i, h.tracked, p.Run, p.N, p.Mean, p.Variance, w.run, w.n, w.mean, w.variance())
		}
	}
	return []string{
		fmt.Sprintf("history-query: all %d answers were 200 and decoded as the kind asked for", answered),
		fmt.Sprintf("history-query: the daemon's history of cell %s (%d runs) matches a streaming recompute over the raw stores", h.tracked, len(want)),
	}, nil
}

// cellRun is one run's streaming aggregate of the tracked cell.
type cellRun struct {
	run      string
	mtime    int64
	n        int
	mean, m2 float64
}

func (c *cellRun) variance() float64 {
	if c.n < 2 {
		return 0
	}
	return c.m2 / float64(c.n-1)
}

// recomputeHistory scans every store file of dir one record at a time
// and aggregates the cell with Welford's update, oldest run first.
func recomputeHistory(dir, cell string) ([]cellRun, error) {
	files, err := runFiles(dir)
	if err != nil {
		return nil, err
	}
	var out []cellRun
	for _, name := range files {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c := cellRun{run: name, mtime: fi.ModTime().UnixNano()}
		for rec, err := range runstore.ScanFile(filepath.Join(dir, name)) {
			if err != nil {
				return nil, err
			}
			v, ok := rec.Responses["latency_ms"]
			if rec.Hash != cell || !ok {
				continue
			}
			c.n++
			d := v - c.mean
			c.mean += d / float64(c.n)
			c.m2 += d * (v - c.mean)
		}
		if c.n > 0 {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].mtime < out[j].mtime })
	return out, nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func (h *historyQuery) layers(tr *tracer, st selfTimes, traced figures) (map[string]float64, map[string]string) {
	rp := h.replay
	vals := map[string]float64{
		"runstore.scan_records":              traced.reads + float64(rp.records),
		"collector.query_http_self_ms":       median(rp.perQuery),
		"warehouse.refresh_p50_ms":           median(rp.refresh),
		"warehouse.refresh_records":          float64(rp.records),
		"warehouse.refresh_ingest_share":     ratio(float64(rp.ingested), float64(len(rp.refresh))),
		"warehouse.query_history_p50_ms":     median(rp.query[warehouse.KindHistory]),
		"warehouse.query_runs_p50_ms":        median(rp.query[warehouse.KindRuns]),
		"warehouse.query_trends_p50_ms":      median(rp.query[warehouse.KindTrends]),
		"warehouse.query_regressions_p50_ms": median(rp.query[warehouse.KindRegressions]),
		"warehouse.index_bytes":              float64(h.lastIndex),
	}
	bases := map[string]string{
		"collector.query_http_self_ms":   fmt.Sprintf("median over %d queries of HTTP time minus the replayed Refresh+Query", len(rp.perQuery)),
		"warehouse.refresh_p50_ms":       fmt.Sprintf("%d replayed refreshes", len(rp.refresh)),
		"warehouse.refresh_ingest_share": fmt.Sprintf("%d refreshes that ingested / %d refreshes", rp.ingested, len(rp.refresh)),
		"warehouse.query_history_p50_ms": fmt.Sprintf("%d history queries", len(rp.query[warehouse.KindHistory])),
		"runstore.scan_records":          "records the read path decoded (benchmark count; the runstore_scan_records_total series counts only Store.Scan, which no workload calls)",
		"warehouse.index_bytes":          "index file of the last cold build",
	}
	return vals, bases
}

func (h *historyQuery) close() error {
	if h.ht != nil {
		h.ht.CloseIdleConnections()
	}
	if h.d == nil {
		return nil
	}
	return h.d.stop()
}
