package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/resilience-models/dvf/internal/tracez"
)

// childResult is what one benchmark process reports to the parent, as a
// single JSON line on its standard output.
type childResult struct {
	Role     string   `json:"role"`
	SetupNs  int64    `json:"setup_ns"` // process start to first timed operation
	PassNs   []int64  `json:"pass_ns"`  // wall time of each timed pass
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Failures []string `json:"failures,omitempty"`
	// Counters are the layer counts; a layer's "<layer>.rounds" counter
	// says how many rounds of its work (passes over a suite) they cover.
	Counters    map[string]float64 `json:"counters"`
	ModelErrPct *float64           `json:"model_err_pct,omitempty"`
	Requests    []reqTime          `json:"requests,omitempty"`
	TracePath   string             `json:"trace_path,omitempty"`
}

// reqTime is one timed whatif request: its generator class and latency.
type reqTime struct {
	Class int   `json:"c"`
	Ns    int64 `json:"ns"`
}

// maxFailures bounds the mismatch messages a process carries back.
const maxFailures = 20

// ctx is the state of one benchmark process: its span track (nil when
// untraced), its layer counters and its correctness tally.
type ctx struct {
	tz      *tracez.Tracer
	tk      *tracez.Track
	workers []*tracez.Track // one per reference-check goroutine
	res     *childResult
}

func newCtx(role string, traced bool) *ctx {
	c := &ctx{res: &childResult{Role: role, Counters: map[string]float64{}}}
	if traced {
		c.tz = tracez.New()
		c.tk = c.tz.Track("bench " + role)
	}
	return c
}

// scratch returns an untraced context whose counters and checks are
// discarded: the warm-up pass runs through it.
func (c *ctx) scratch() *ctx {
	return &ctx{res: &childResult{Counters: map[string]float64{}}}
}

// begin opens a layer span on the process's track (a no-op untraced).
func (c *ctx) begin(name string) tracez.Span { return c.tk.Begin(name) }

// workerSpan opens a span on check worker w's own track.
func (c *ctx) workerSpan(w int, name string) tracez.Span {
	if w >= len(c.workers) {
		return tracez.Span{}
	}
	return c.workers[w].Begin(name)
}

// ensureWorkers creates n check-worker tracks (none untraced).
func (c *ctx) ensureWorkers(n int) {
	for i := len(c.workers); i < n && c.tz != nil; i++ {
		c.workers = append(c.workers, c.tz.Track(fmt.Sprintf("check %d", i)))
	}
}

func (c *ctx) add(counter string, v float64) { c.res.Counters[counter] += v }

// op records one checked operation; a non-empty msg marks it failed.
func (c *ctx) op(msg string) {
	c.res.Ops++
	if msg == "" {
		return
	}
	c.res.Failed++
	if len(c.res.Failures) < maxFailures {
		c.res.Failures = append(c.res.Failures, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// startTimed marks the first timed operation: everything before it is
// set-up. It forces a GC so every timed pass starts from a clean heap.
func (c *ctx) startTimed(t0 time.Time) {
	runtime.GC()
	c.res.SetupNs = time.Since(t0).Nanoseconds()
}

// writeTrace dumps the recorded spans next to the other run outputs.
func (c *ctx) writeTrace(path string) error {
	if c.tz == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.tz.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	c.res.TracePath = path
	return nil
}
