package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/collector"
)

// daemon is an in-process collector served over loopback TCP, as
// `perfeval serve` serves it.
type daemon struct {
	srv  *collector.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon(cfg collector.Config) (*daemon, error) {
	srv, err := collector.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("collector listen: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for the serve loop to return and
// closes the collector, so every acknowledged record is on disk. Call
// it once.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if closeErr := d.srv.Close(); err == nil {
		err = closeErr
	}
	return err
}
