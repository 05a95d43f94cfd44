package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
)

// observingTransport hands every response to see after the round trip
// returns, before the client reads its body.
type observingTransport struct {
	see func(*http.Response)
}

func (o observingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		o.see(resp)
	}
	return resp, err
}

// TestExecuteBusyLoopEnds pins the two exits of the worker's unbounded
// ErrBusy wait: the busy shard's holder releases it or lets it expire,
// after which acquire answers 204 and Execute returns the empty
// ResultSet; and a canceled context ends the wait with ctx.Err()
// however long AcquireWait is.
func TestExecuteBusyLoopEnds(t *testing.T) {
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := &harness.Experiment{Name: "busy", Design: d, Responses: []string{"ms"},
		Run: func(design.Assignment, int) (map[string]float64, error) {
			t.Error("a worker that never got a lease ran a unit")
			return map[string]float64{"ms": 1}, nil
		}}
	serve := func(statuses ...int) (*httptest.Server, func() int) {
		var mu sync.Mutex
		acquires := 0
		mux := http.NewServeMux()
		mux.HandleFunc("POST "+collector.PathRegister, func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"worker":"w1"}`)
		})
		mux.HandleFunc("POST "+collector.PathAcquire, func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			mu.Lock()
			status := statuses[min(acquires, len(statuses)-1)]
			acquires++
			mu.Unlock()
			if status == http.StatusConflict {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			if status != http.StatusNoContent {
				io.WriteString(w, `{"error":"scripted"}`)
			}
		})
		srv := httptest.NewServer(mux)
		return srv, func() int {
			mu.Lock()
			defer mu.Unlock()
			return acquires
		}
	}

	freed, acquires := serve(http.StatusConflict, http.StatusConflict, http.StatusNoContent)
	defer freed.Close()
	w, err := NewWorker(Options{URL: freed.URL, AcquireWait: time.Millisecond,
		SpoolDir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := w.Execute(context.Background(), exp)
	if err != nil {
		t.Fatalf("409, 409, 204: Execute = %v, want the empty ResultSet", err)
	}
	if len(rs.Rows) != d.NumRuns() {
		t.Errorf("ResultSet has %d row(s), want the design's %d", len(rs.Rows), d.NumRuns())
	}
	for i, row := range rs.Rows {
		if len(row.Reps) != 0 {
			t.Errorf("row %d carries %d replicate(s), want none", i, len(row.Reps))
		}
	}
	if n := acquires(); n != 3 {
		t.Errorf("server saw %d acquire(s), want 3", n)
	}

	busy, _ := serve(http.StatusConflict) // 409 forever
	defer busy.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as the first 409 reaches the worker: Acquire still reports
	// ErrBusy, and the worker is about to wait out a 30s AcquireWait.
	hc := &http.Client{Transport: observingTransport{see: func(resp *http.Response) {
		if resp.StatusCode == http.StatusConflict {
			cancel()
		}
	}}}
	w, err = NewWorker(Options{URL: busy.URL, AcquireWait: 30 * time.Second,
		SpoolDir: t.TempDir(), HTTPClient: hc, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := w.Execute(ctx, exp)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != ctx.Err() {
			t.Errorf("canceled busy loop: err = %v, want ctx.Err() = %v", err, ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("busy loop did not end on cancel")
	}
}

// TestLostLeaseRecordsReachServer: a worker whose lease is lost mid-run
// re-acquires the same shard. Units it spooled but the server never
// acknowledged must execute (and stream) again — replaying them from
// the local spool would release the shard complete while the server
// misses them.
func TestLostLeaseRecordsReachServer(t *testing.T) {
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = 4
	exp := &harness.Experiment{Name: "lost", Design: d, Responses: []string{"ms"},
		Run: func(a design.Assignment, rep int) (map[string]float64, error) {
			return map[string]float64{"ms": float64(len(a["memory"])*10 + rep)}, nil
		}}
	dir := t.TempDir()
	srv, err := collector.New(collector.Config{Dir: dir, Shards: 1,
		LeaseTTL: 150 * time.Millisecond, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The second ingest is refused 410 before the daemon sees it: the
	// worker believes its lease lost while the daemon still holds it
	// until the TTL runs out, then grants the shard again.
	var mu sync.Mutex
	ingests := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == collector.PathIngest {
			mu.Lock()
			ingests++
			n := ingests
			mu.Unlock()
			if n == 2 {
				io.Copy(io.Discard, r.Body)
				w.WriteHeader(http.StatusGone)
				io.WriteString(w, `{"error":"scripted lease loss"}`)
				return
			}
		}
		srv.ServeHTTP(w, r)
	}))
	defer hs.Close()
	w, err := NewWorker(Options{URL: hs.URL, Workers: 1, FlushEvery: 4,
		AcquireWait: 25 * time.Millisecond, SpoolDir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	recs, err := runstore.LoadRecords(shardstore.Path(dir, exp.Name, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := d.NumRuns() * d.Replicates
	if len(recs) != want {
		t.Errorf("server shard holds %d of %d record(s) after the lease loss (report %+v)", len(recs), want, w.Report())
	}
}
