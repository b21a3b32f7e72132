package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/serve"
	"github.com/resilience-models/dvf/internal/serve/loadtest"
)

// ServeOptions selects what the service benchmark covers.
type ServeOptions struct {
	Requests int          // total sweep requests; <= 0 selects 64
	Clients  int          // concurrent clients; <= 0 selects 4
	Workers  int          // server evaluation workers; <= 0 selects GOMAXPROCS
	Sink     metrics.Sink // shared with the pipeline run; the client latency digest lands here
	Logf     func(format string, args ...any)
}

// RunServe benchmarks the dvf-serve hot path end to end: an in-process
// server on an ephemeral port, the loadtest client fleet posting
// analytic-engine sweep requests over real HTTP, and a graceful drain.
// The outcome is the serve bench cell, keyed "serve/loadtest/serve":
// Refs counts completed evaluations, WallNs the whole run, so NsPerRef
// is the sustained wall cost per served evaluation — the number the
// ">= 100k evaluations/min" capacity bar is written against. The
// request-latency histogram digest rides into the manifest through the
// shared Sink ("loadtest.request_ns").
func RunServe(o ServeOptions) (Cell, error) {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	srv := serve.New(serve.Config{Sink: o.Sink, Workers: o.Workers})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	addr := <-addrCh

	res, err := loadtest.Run(loadtest.Options{
		BaseURL:  "http://" + addr.String(),
		Requests: o.Requests,
		Clients:  o.Clients,
		Sink:     o.Sink,
	})
	cancel()
	if derr := <-done; derr != nil && err == nil {
		err = derr
	}
	if err != nil {
		return Cell{}, fmt.Errorf("bench: serve cell: %w", err)
	}
	if res.Errors > 0 {
		return Cell{}, fmt.Errorf("bench: serve cell: %d request rows failed", res.Errors)
	}

	cell := Cell{
		Kernel:  "serve",
		Cache:   "loadtest",
		Engine:  "serve",
		Workers: srvWorkers(o.Workers),
		Iters:   1,
		Refs:    res.Evals,
		WallNs:  res.Wall.Nanoseconds(),
	}
	if cell.Refs > 0 {
		cell.NsPerRef = float64(cell.WallNs) / float64(cell.Refs)
	}
	logf("serve: %d requests, %d evals in %s — %.0f evals/min, request p99 <= %s",
		res.Requests, res.Evals, res.Wall.Round(time.Millisecond),
		res.EvalsPerMin(), time.Duration(res.Latency.P99).Round(time.Microsecond))
	return cell, nil
}

// srvWorkers mirrors serve.New's worker defaulting for the cell label.
func srvWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
