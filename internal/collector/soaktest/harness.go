// Package soaktest is the collector's fault-injection harness: a
// restartable in-process daemon pinned to a stable address, plus the
// chaos injectors the soak test aims at it — daemon kill/restart cycles,
// torn connections, and (via slow uploads into a tiny ingest budget) 429
// storms. The soak itself lives in this package's test files and asserts the hardening
// contract end to end: whatever the fault schedule, the merged and
// compacted collector store is byte-identical to a single-process run.
//
// Run it with `make soak` (full schedule) or `make soak-short` (the
// ~seconds CI smoke); both run under the race detector.
package soaktest

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/collector"
)

// Daemon is a collector served over real TCP at an address that
// survives restarts: Stop severs every live connection and closes the
// collector (as much of a crash as an in-process daemon can stage while
// still letting the test rebind the port), and Start brings a fresh
// incarnation up on the same address and the same directory, so clients
// holding the old URL reconnect into the replayed control state.
type Daemon struct {
	cfg  collector.Config
	addr string

	mu  sync.Mutex
	srv *collector.Server
	hs  *http.Server
}

// NewDaemon starts the first incarnation on a fresh loopback port.
func NewDaemon(cfg collector.Config) (*Daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soaktest: %w", err)
	}
	d := &Daemon{cfg: cfg, addr: ln.Addr().String()}
	if err := d.serve(ln); err != nil {
		ln.Close()
		return nil, err
	}
	return d, nil
}

// Addr is the daemon's host:port — fixed for the Daemon's lifetime.
func (d *Daemon) Addr() string { return d.addr }

// URL is the base URL clients dial; it stays valid across restarts.
func (d *Daemon) URL() string { return "http://" + d.addr }

func (d *Daemon) serve(ln net.Listener) error {
	srv, err := collector.New(d.cfg)
	if err != nil {
		return fmt.Errorf("soaktest: %w", err)
	}
	hs := &http.Server{Handler: slowUploads(srv)}
	d.mu.Lock()
	d.srv, d.hs = srv, hs
	d.mu.Unlock()
	go hs.Serve(ln)
	return nil
}

// uploadDelay is the slow-upload fault: every ingest body reaches the
// collector this late, as over a slow link, after the request was
// admitted against the in-flight budget. An admitted batch therefore
// holds its reservation at least this long, so concurrent workers
// overlap, and a tiny Config.MaxInflight turns that overlap into a 429
// storm.
const uploadDelay = 2 * time.Millisecond

// slowUploads applies the slow-upload fault to h's ingest requests.
func slowUploads(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == collector.PathIngest {
			r.Body = &lateBody{ReadCloser: r.Body}
		}
		h.ServeHTTP(w, r)
	})
}

// lateBody sleeps uploadDelay before its first Read.
type lateBody struct {
	io.ReadCloser
	started bool
}

func (b *lateBody) Read(p []byte) (int, error) {
	if !b.started {
		b.started = true
		time.Sleep(uploadDelay)
	}
	return b.ReadCloser.Read(p)
}

// Stop kills the current incarnation: the listener and every live
// connection are closed immediately (in-flight requests see a torn
// response, exactly like a daemon crash), then the collector is closed
// so its journals and control state are flushed. Safe to call twice.
func (d *Daemon) Stop() error {
	d.mu.Lock()
	srv, hs := d.srv, d.hs
	d.srv, d.hs = nil, nil
	d.mu.Unlock()
	if hs == nil {
		return nil
	}
	hs.Close()
	return srv.Close()
}

// Start brings a new incarnation up on the same address and directory.
// The port was just released by Stop, so the bind is retried briefly.
func (d *Daemon) Start() error {
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", d.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("soaktest: rebinding %s: %w", d.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.serve(ln); err != nil {
		ln.Close()
		return err
	}
	return nil
}

// Restart is one chaos cycle: kill, stay dark for downFor (clients see
// connection refused, not hangs), then come back on the same address.
func (d *Daemon) Restart(downFor time.Duration) error {
	if err := d.Stop(); err != nil {
		return err
	}
	time.Sleep(downFor)
	return d.Start()
}

// TornConnections aims malformed and prematurely-severed HTTP traffic
// at addr until ctx is done: requests torn mid-line, bodies shorter
// than their declared Content-Length, and ingest streams cut mid-JSON.
// The daemon must shrug all of it off — no wedged handlers, no leaked
// admission budget. Dial failures while the daemon is dark are part of
// the schedule and are skipped, not counted. Returns the number of torn
// connections actually delivered.
func TornConnections(ctx context.Context, addr string, every time.Duration) int {
	payloads := []string{
		"POST /v1/ing",
		"POST " + collector.PathIngest + "?lease=lease-999-999 HTTP/1.1\r\nHost: soak\r\nContent-Length: 1048576\r\n\r\n{\"experiment\":",
		"POST " + collector.PathRegister + " HTTP/1.1\r\nHost: soak\r\nContent-Length: 64\r\n\r\n{\"worker\":\"to",
		"GET " + collector.PathStatus + " HTTP/1.1\r\nHost",
	}
	delivered := 0
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return delivered
		case <-time.After(every):
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			continue // daemon is dark: the restart injector's window
		}
		io.WriteString(conn, payloads[i%len(payloads)])
		conn.Close()
		delivered++
	}
}
