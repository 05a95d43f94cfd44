package client

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
)

// TestIngestReplaysOnKilledKeepAlive kills the keep-alive connection
// under the second ingest — the handler hijacks the conn and closes it
// without a response, after the batch is fully uploaded. Because the
// request carries GetBody, net/http replays it transparently on a fresh
// connection; the caller sees two clean Ingests, the server sees the
// killed batch twice (idempotent: the store is last-wins).
func TestIngestReplaysOnKilledKeepAlive(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("reading ingest body: %v", err)
		}
		mu.Lock()
		bodies = append(bodies, string(body))
		n := len(bodies)
		mu.Unlock()
		if n == 2 {
			// The server dies mid-batch: connection torn down with no
			// response bytes at all.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	// A private transport so connection reuse is under this test's
	// control, not shared with other tests.
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c := New(srv.URL, hc)
	ctx := context.Background()
	recA := runstore.Record{Experiment: "e", Row: 0, Replicate: 0,
		Assignment: map[string]string{"f": "a"}, Responses: map[string]float64{"ms": 1}}
	recB := runstore.Record{Experiment: "e", Row: 1, Replicate: 0,
		Assignment: map[string]string{"f": "b"}, Responses: map[string]float64{"ms": 2}}

	if err := c.Ingest(ctx, "L", []runstore.Record{recA}); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if err := c.Ingest(ctx, "L", []runstore.Record{recB}); err != nil {
		t.Fatalf("second ingest (killed keep-alive) did not recover: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 3 {
		t.Fatalf("server saw %d uploads, want 3 (second batch replayed once)", len(bodies))
	}
	if bodies[1] != bodies[2] {
		t.Errorf("replayed body differs from the killed upload:\n%q\n%q", bodies[1], bodies[2])
	}
	if bodies[1] == bodies[0] {
		t.Errorf("second upload carried the first batch")
	}
	if !strings.Contains(bodies[2], `"f":"b"`) {
		t.Errorf("replayed body does not hold the second batch: %q", bodies[2])
	}
}

// TestIngest503RetriedThenRecovers: a 503 — the server could not store
// the batch (shutdown, disk hiccup) — is retried after the Retry-After
// hint instead of killing the run like a terminal 400; once the server
// recovers, the same idempotent batch lands. A server that never
// recovers must still surface the failure after a bounded number of
// attempts rather than spin forever.
func TestIngest503RetriedThenRecovers(t *testing.T) {
	rec := runstore.Record{Experiment: "e", Row: 0, Replicate: 0,
		Assignment: map[string]string{"f": "a"}, Responses: map[string]float64{"ms": 1}}
	serve := func(failures int) (*httptest.Server, func() int) {
		var mu sync.Mutex
		attempts := 0
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			mu.Lock()
			attempts++
			n := attempts
			mu.Unlock()
			if failures < 0 || n <= failures {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"collector: storing batch: disk full"}`)
				return
			}
			io.WriteString(w, `{"appended":1}`)
		}))
		return srv, func() int {
			mu.Lock()
			defer mu.Unlock()
			return attempts
		}
	}

	srv, attempts := serve(2)
	defer srv.Close()
	if err := New(srv.URL, nil).Ingest(context.Background(), "L", []runstore.Record{rec}); err != nil {
		t.Fatalf("ingest through two 503s: %v", err)
	}
	if n := attempts(); n != 3 {
		t.Errorf("server saw %d attempt(s), want 3 (two 503s, then success)", n)
	}

	dead, deadAttempts := serve(-1) // 503 forever
	defer dead.Close()
	err := New(dead.URL, nil).Ingest(context.Background(), "L", []runstore.Record{rec})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("permanent 503: err = %v, want the server's storage error", err)
	}
	if n := deadAttempts(); n != ingestRetries+1 {
		t.Errorf("permanent 503: server saw %d attempt(s), want %d", n, ingestRetries+1)
	}
}

// TestIngest429LoopEnds pins the two exits of the unbounded 429 loop:
// a lease lost while backpressured ends it with ErrLeaseLost (the server
// checks the lease before the budget), and a canceled context ends it
// with ctx.Err() however long the server's Retry-After hint is.
func TestIngest429LoopEnds(t *testing.T) {
	rec := runstore.Record{Experiment: "e", Row: 0, Replicate: 0,
		Assignment: map[string]string{"f": "a"}, Responses: map[string]float64{"ms": 1}}
	serve := func(statuses ...int) (*httptest.Server, func() int) {
		var mu sync.Mutex
		attempts := 0
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			mu.Lock()
			status := statuses[min(attempts, len(statuses)-1)]
			attempts++
			mu.Unlock()
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "0")
				if len(statuses) == 1 {
					w.Header().Set("Retry-After", "30")
				}
			}
			w.WriteHeader(status)
			io.WriteString(w, `{"error":"scripted"}`)
		}))
		return srv, func() int {
			mu.Lock()
			defer mu.Unlock()
			return attempts
		}
	}

	lost, lostAttempts := serve(http.StatusTooManyRequests, http.StatusTooManyRequests, http.StatusGone)
	defer lost.Close()
	err := New(lost.URL, nil).Ingest(context.Background(), "L", []runstore.Record{rec})
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("429, 429, 410: err = %v, want ErrLeaseLost", err)
	}
	if n := lostAttempts(); n != 3 {
		t.Errorf("server saw %d attempt(s), want 3", n)
	}

	busy, _ := serve(http.StatusTooManyRequests) // 429 forever, 30s hints
	defer busy.Close()
	c := New(busy.URL, nil)
	c.SetMetrics(obs.NewRegistry()) // a private waits counter
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- c.Ingest(ctx, "L", []runstore.Record{rec}) }()
	// The waits counter ticks once the 429 is drained, just before the
	// client blocks on its Retry-After: cancel exactly then.
	for deadline := time.Now().Add(5 * time.Second); c.met.waits.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("client never backed off on the 429")
		}
	}
	cancel()
	select {
	case err := <-errc:
		if err != ctx.Err() {
			t.Errorf("canceled 429 loop: err = %v, want ctx.Err() = %v", err, ctx.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("429 loop did not end on cancel")
	}
}

// renewStep scripts one renew attempt: the fake-clock time at which it
// happens and the result it returns.
type renewStep struct {
	at  time.Duration
	err error
}

// renewHarness runs renewLoop against a manual tick channel and a fake
// clock. The clock only advances inside the renew callback — it
// consumes one scripted step per tick — so the loop's post-renew
// deadline arithmetic always reads the step's own time, with no race
// against the driving test. The unbuffered tick send is the barrier:
// it cannot complete until the loop is back at its select, i.e. done
// processing the previous step.
type renewHarness struct {
	t      *testing.T
	tick   chan time.Time
	steps  chan renewStep
	mu     sync.Mutex
	now    time.Time
	lost   chan error
	done   chan struct{}
	cancel context.CancelFunc
}

func startRenewHarness(t *testing.T, ttl time.Duration) *renewHarness {
	t.Helper()
	h := &renewHarness{
		t:     t,
		tick:  make(chan time.Time),
		steps: make(chan renewStep),
		now:   time.Unix(1_000_000, 0),
		lost:  make(chan error, 1),
		done:  make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	t.Cleanup(cancel)
	go func() {
		defer close(h.done)
		renewLoop(ctx, "L", ttl, h.tick,
			func() time.Time {
				h.mu.Lock()
				defer h.mu.Unlock()
				return h.now
			},
			func() error {
				s := <-h.steps
				h.mu.Lock()
				h.now = time.Unix(1_000_000, 0).Add(s.at)
				h.mu.Unlock()
				return s.err
			},
			func(err error) { h.lost <- err },
			discardLogger())
	}()
	return h
}

// step fires one tick and scripts the renew attempt it triggers: the
// attempt happens at the given offset from the harness start and
// returns renewErr.
func (h *renewHarness) step(at time.Duration, renewErr error) {
	h.t.Helper()
	select {
	case h.tick <- time.Time{}:
	case <-time.After(5 * time.Second):
		h.t.Fatal("renewLoop stopped accepting ticks")
	}
	select {
	case h.steps <- renewStep{at: at, err: renewErr}:
	case <-time.After(5 * time.Second):
		h.t.Fatal("renewLoop never ran the renew callback")
	}
}

func (h *renewHarness) expectLost(within time.Duration) error {
	h.t.Helper()
	select {
	case err := <-h.lost:
		return err
	case <-time.After(within):
		h.t.Fatal("renewLoop never reported the lease lost")
		return nil
	}
}

func (h *renewHarness) expectAlive() {
	h.t.Helper()
	select {
	case err := <-h.lost:
		h.t.Fatalf("renewLoop reported lost early: %v", err)
	default:
	}
}

// TestRenewLoopTTLElapsedMarksLost drives renewLoop with a fake clock:
// transient renew errors are tolerated while the TTL deadline holds,
// and the first failure at or past the deadline marks the lease lost
// with an ErrLeaseLost-matching error.
func TestRenewLoopTTLElapsedMarksLost(t *testing.T) {
	ttl := 30 * time.Second
	transient := errors.New("connection refused")
	h := startRenewHarness(t, ttl)

	h.step(10*time.Second, transient) // failing, but deadline (t+30s) holds
	h.expectAlive()
	h.step(20*time.Second, nil) // success: deadline moves to t+50s
	h.expectAlive()
	h.step(45*time.Second, transient) // failing again, new deadline holds
	h.expectAlive()
	h.step(50*time.Second, transient) // a full TTL with no success: lost
	err := h.expectLost(5 * time.Second)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("lost error = %v, want ErrLeaseLost", err)
	}
	if !strings.Contains(err.Error(), "no successful renew") {
		t.Errorf("lost error %q does not explain the TTL elapse", err)
	}
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("renewLoop did not return after marking the lease lost")
	}
}

// TestRenewLoopLeaseLostStopsImmediately: a server-reported 410 stops
// the loop on the spot, deadline state notwithstanding.
func TestRenewLoopLeaseLostStopsImmediately(t *testing.T) {
	h := startRenewHarness(t, 30*time.Second)
	h.step(1*time.Second, ErrLeaseLost)
	if err := h.expectLost(5 * time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("lost error = %v, want ErrLeaseLost", err)
	}
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("renewLoop did not return")
	}
}

// TestRenewLoopShutdownIsNotLoss: a renew that failed because the shard
// run is shutting down (ctx canceled under it) must not be reported as
// lease loss.
func TestRenewLoopShutdownIsNotLoss(t *testing.T) {
	h := startRenewHarness(t, 30*time.Second)
	h.cancel() // shutdown first, then the tick races in
	select {
	case h.tick <- time.Time{}:
		// The loop picked the tick branch: it must classify the failure —
		// staged far past the deadline — as shutdown, not loss.
		select {
		case h.steps <- renewStep{at: time.Hour, err: errors.New("context canceled")}:
		case <-h.done:
		}
	case <-h.done:
		// The loop exited on ctx.Done before taking the tick — fine.
	case <-time.After(5 * time.Second):
		t.Fatal("renewLoop accepted neither the tick nor the cancel")
	}
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("renewLoop did not return after cancel")
	}
	select {
	case err := <-h.lost:
		t.Fatalf("shutdown was reported as lease loss: %v", err)
	default:
	}
}

// TestRetryAfter pins the Retry-After parsing contract: both header
// forms, the zero hint, the cap, and the ±20% jitter band.
func TestRetryAfter(t *testing.T) {
	resp := func(header string) *http.Response {
		r := &http.Response{Header: http.Header{}}
		if header != "" {
			r.Header.Set("Retry-After", header)
		}
		return r
	}
	between := func(name string, d, lo, hi time.Duration) {
		t.Helper()
		if d < lo || d > hi {
			t.Errorf("%s: wait %v outside [%v, %v]", name, d, lo, hi)
		}
	}
	for i := 0; i < 50; i++ {
		between("absent", retryAfter(resp("")), 800*time.Millisecond, 1200*time.Millisecond)
		between("seconds", retryAfter(resp("5")), 4*time.Second, 6*time.Second)
		between("zero", retryAfter(resp("0")), retryAfterFloor, retryAfterFloor)
		between("garbage", retryAfter(resp("soon")), 800*time.Millisecond, 1200*time.Millisecond)
		between("capped", retryAfter(resp("3600")), 24*time.Second, 36*time.Second)
		date := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
		between("http-date", retryAfter(resp(date)), 7*time.Second, 13*time.Second)
		past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
		between("past-date", retryAfter(resp(past)), retryAfterFloor, retryAfterFloor)
	}
}

// TestRetryAfterProperty is the property-style companion to the pinned
// table above: randomized delta-seconds and HTTP-date headers, asserting
// for every draw that the honored wait lands inside the jittered band
// [0.8·base, 1.2·base], never above the 30s cap, and never below the
// floor — with no wall-clock sleeps anywhere.
func TestRetryAfterProperty(t *testing.T) {
	resp := func(header string) *http.Response {
		r := &http.Response{Header: http.Header{}}
		if header != "" {
			r.Header.Set("Retry-After", header)
		}
		return r
	}
	band := func(name string, d, base time.Duration) {
		t.Helper()
		base = min(base, retryAfterCap)
		lo := max(time.Duration(0.8*float64(base)), retryAfterFloor)
		hi := max(time.Duration(1.2*float64(base)), retryAfterFloor)
		if d < lo || d > hi {
			t.Fatalf("%s: wait %v outside jitter band [%v, %v]", name, d, lo, hi)
		}
	}
	rng := rand.New(rand.NewPCG(0xfeed, 0xbeef))

	// Delta-seconds form, 0..120s: inside the band, capped at 30s.
	for i := 0; i < 2000; i++ {
		secs := rng.IntN(121)
		d := retryAfter(resp(strconv.Itoa(secs)))
		band("delta-seconds", d, time.Duration(secs)*time.Second)
		if d > time.Duration(1.2*float64(retryAfterCap)) {
			t.Fatalf("wait %v above the jittered cap", d)
		}
	}

	// "0" is a real hint: exactly the floor, every time — the jitter of a
	// zero base is zero, and the floor is what keeps it off a hot spin.
	for i := 0; i < 100; i++ {
		if d := retryAfter(resp("0")); d != retryAfterFloor {
			t.Fatalf(`"0" hint: wait %v, want exactly the %v floor`, d, retryAfterFloor)
		}
	}

	// HTTP-date form: base is time.Until(date), so grant one second of
	// slack below (the header has whole-second resolution and the clock
	// moves between formatting and parsing).
	for i := 0; i < 300; i++ {
		offset := time.Duration(1+rng.IntN(90)) * time.Second
		date := time.Now().Add(offset).UTC().Format(http.TimeFormat)
		d := retryAfter(resp(date))
		base := min(offset, retryAfterCap)
		lo := max(time.Duration(0.8*float64(base-time.Second)), retryAfterFloor)
		hi := max(time.Duration(1.2*float64(base)), retryAfterFloor)
		if d < lo || d > hi {
			t.Fatalf("http-date +%v: wait %v outside [%v, %v]", offset, d, lo, hi)
		}
	}

	// The jitter must actually jitter: a fleet backpressured by one
	// response has to retry staggered, not in lockstep.
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		seen[retryAfter(resp("10"))] = true
	}
	if len(seen) < 8 {
		t.Errorf("64 draws of a 10s hint produced only %d distinct waits — jitter looks broken", len(seen))
	}
}

// TestRenewLoopDaemonRestartRecovers scripts a daemon restart mid-lease
// on the fake clock: renews fail with connection-refused while the
// daemon is down, the first renew against the restarted daemon (which
// resumed the lease from its state journal) succeeds, and the loop is
// still alive — no loss reported. When the shard run ends, the loop
// exits; the harness's done channel is the goroutine-leak check.
func TestRenewLoopDaemonRestartRecovers(t *testing.T) {
	refused := errors.New("dial tcp 127.0.0.1:9009: connect: connection refused")
	h := startRenewHarness(t, 30*time.Second)

	h.step(5*time.Second, refused) // daemon killed
	h.step(12*time.Second, refused)
	h.step(19*time.Second, refused) // restarting...
	h.expectAlive()
	h.step(25*time.Second, nil) // back up, lease resumed: renew lands
	h.expectAlive()
	h.step(40*time.Second, nil) // steady state again
	h.expectAlive()

	h.cancel() // the shard run finishes
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("renewLoop goroutine leaked after the shard run ended")
	}
	select {
	case err := <-h.lost:
		t.Fatalf("a survived restart was reported as lease loss: %v", err)
	default:
	}
}

// TestRenewLoopDaemonRestartOutlastsTTL is the unlucky half: the daemon
// stays down past a full TTL, so the loop must declare the lease lost
// (exactly once, with ErrLeaseLost) and exit — and the worker's spool
// journal must remain a valid, reopenable runstore journal holding every
// record it executed, because that spool is the warm-start artifact the
// shard's next owner builds on.
func TestRenewLoopDaemonRestartOutlastsTTL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK) // ack every ingest batch
	}))
	defer srv.Close()
	spool := t.TempDir() + "/spool.jsonl"
	store, err := newRemoteStore(context.Background(), New(srv.URL, nil), "L", spool, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]runstore.Record, 4)
	for i := range recs {
		recs[i] = runstore.Record{Experiment: "e", Row: i, Replicate: 0,
			Assignment: map[string]string{"f": strconv.Itoa(i)}, Responses: map[string]float64{"ms": float64(i)}}
		if err := store.Append(recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	refused := errors.New("dial tcp 127.0.0.1:9009: connect: connection refused")
	h := startRenewHarness(t, 30*time.Second)
	h.step(10*time.Second, refused) // daemon killed...
	h.expectAlive()
	h.step(31*time.Second, refused) // ...and stayed dead past the TTL
	lostErr := h.expectLost(5 * time.Second)
	if !errors.Is(lostErr, ErrLeaseLost) {
		t.Fatalf("lost error = %v, want ErrLeaseLost", lostErr)
	}
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("renewLoop goroutine leaked after marking the lease lost")
	}

	// runShard's lost callback wiring: the store learns the cause, then
	// closes without a final flush (nobody to stream to).
	store.markLost(lostErr)
	if err := store.Close(); err != nil {
		t.Fatalf("closing lost store: %v", err)
	}
	j, err := runstore.Open(spool)
	if err != nil {
		t.Fatalf("spool did not reopen cleanly after lease loss: %v", err)
	}
	defer j.Close()
	if j.Torn() {
		t.Error("spool journal reopened torn")
	}
	if j.Len() != len(recs) {
		t.Fatalf("spool holds %d record(s), want %d", j.Len(), len(recs))
	}
	for _, want := range recs {
		if _, ok := j.Lookup(want.Experiment, runstore.AssignmentHash(want.Assignment), want.Replicate); !ok {
			t.Errorf("spool lost record row %d", want.Row)
		}
	}
}
