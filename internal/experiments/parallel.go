package experiments

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
)

// Options configures a figure driver. The zero value is the plain run:
// every cell fanned out at once, no metrics, no timeline. The figures
// are byte-identical for every setting of every field; only wall-clock
// time and the recorded observability change.
type Options struct {
	// Workers bounds the cells in flight: 1 runs them one after another
	// in the caller's goroutine (the drivers' -workers=1 fallback, no
	// goroutines at all), 0 fans all of them out, N > 1 keeps at most N
	// in flight.
	Workers int
	// Sink, when non-nil, receives the fan-out's task timings and each
	// cell's pipeline counters.
	Sink metrics.Sink
	// Tracer, when non-nil, records each cell's spans on its own track.
	Tracer tracez.Recorder
}

// Parallel runs fn(0) … fn(n-1), returning the first error in index order.
//
// o.Workers bounds the number of concurrently running calls: 1 runs every
// call sequentially in the caller's goroutine (no goroutines at all), 0
// or a value >= n imposes no bound (the historical fan-out of the figure
// drivers), and anything in between gates the calls through a semaphore.
// All experiment fan-outs — RunFig4, RunFig5, RunFig6 and core.Explore —
// route through this helper, so its concurrency discipline is what the
// race-targeted tests exercise.
//
// With a live o.Sink each task's wall time lands in the
// "experiments.task_ns" histogram, and the "experiments.tasks",
// "experiments.busy_ns" and "experiments.wall_ns" counters accumulate the
// inputs to a worker-utilization ratio busy/(wall*workers). With a live
// o.Tracer each task samples the "experiments.inflight" counter on entry
// and exit (the fan-out's concurrency over time, a stepped lane in
// Perfetto) and runs under a pprof goroutine label
// ("experiments.task" = index), so live CPU and goroutine profiles can
// attribute samples to figure cells. A nil sink or tracer leaves the task
// closures unwrapped, so the scheduling (and therefore any
// timing-sensitive interleaving) is untouched.
func Parallel(n int, o Options, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	if o.Tracer != nil {
		inflight := o.Tracer.Counter("experiments.inflight")
		var cur atomic.Int64
		inner := fn
		fn = func(i int) error {
			inflight.Sample(cur.Add(1))
			defer func() { inflight.Sample(cur.Add(-1)) }()
			var err error
			pprof.Do(context.Background(), pprof.Labels("experiments.task", strconv.Itoa(i)), func(context.Context) {
				err = inner(i)
			})
			return err
		}
	}
	if o.Sink != nil {
		taskNs := o.Sink.Histogram("experiments.task_ns")
		tasks := o.Sink.Counter("experiments.tasks")
		busy := o.Sink.Counter("experiments.busy_ns")
		wall := o.Sink.Counter("experiments.wall_ns")
		inner := fn
		fn = func(i int) error {
			t0 := time.Now()
			err := inner(i)
			d := time.Since(t0).Nanoseconds()
			taskNs.Observe(d)
			busy.Add(d)
			tasks.Inc()
			return err
		}
		t0 := time.Now()
		defer func() { wall.Add(time.Since(t0).Nanoseconds()) }()
	}
	if o.Workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var sem chan struct{}
	if o.Workers > 0 && o.Workers < n {
		sem = make(chan struct{}, o.Workers)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
