package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/resilience-models/dvf/internal/tracez"
)

// Per-layer metrics come from a traced run: the benchmark's own spans
// around each call into a layer, folded by tracez.Fold into self times,
// and the layer counters the benchmark keeps beside them.

// layerMetric defines one per-layer metric.
type layerMetric struct {
	name, unit string
	// span is the span name (or name prefix, matching "span.*") whose
	// traces the metric reads. A metric is taken from the workload's own
	// traced process when that process recorded such spans, else from
	// the check process, which covers every layer the workload skips.
	span string
	// value computes the metric from the span's self time and count and
	// the chosen process's counters.
	value func(selfUs float64, spans int, n counters) float64
}

// counters reads a process's layer counters; absent ones read 0.
type counters map[string]float64

// per divides safely: an empty denominator reads 0.
func per(x, d float64) float64 {
	if d == 0 {
		return 0
	}
	return x / d
}

// timePerRound is a span's self time in ms per round of the layer's work.
func timePerRound(rounds string) func(float64, int, counters) float64 {
	return func(us float64, _ int, n counters) float64 { return per(us/1e3, n[rounds]) }
}

// nsPerUnit is a span's self time in ns per counted unit of work.
func nsPerUnit(unit string) func(float64, int, counters) float64 {
	return func(us float64, _ int, n counters) float64 { return per(us*1e3, n[unit]) }
}

// perCall is a span's mean self time, scaled from µs.
func perCall(scale float64) func(float64, int, counters) float64 {
	return func(us float64, spans int, _ counters) float64 { return per(us*scale, float64(spans)) }
}

// ratio and count read counters.
func ratio(num, den string) func(float64, int, counters) float64 {
	return func(_ float64, _ int, n counters) float64 { return per(n[num], n[den]) }
}

func count(name, rounds string) func(float64, int, counters) float64 {
	return func(_ float64, _ int, n counters) float64 {
		if rounds == "" {
			return n[name]
		}
		return per(n[name], n[rounds])
	}
}

var layerMetrics = []layerMetric{
	{"kernels.run_ms", "ms", "kernels.run", timePerRound("kernels.rounds")},
	{"kernels.run_ns_per_ref", "ns", "kernels.run", nsPerUnit("kernels.refs")},
	{"trace.record_ns_per_ref", "ns", "trace.record", nsPerUnit("trace.recorded_refs")},
	{"trace.recorded_refs", "count", "trace.record", count("trace.recorded_refs", "")},
	{"patterns.model_ms.CG", "ms", "patterns.model.CG", timePerRound("patterns.rounds")},
	{"patterns.model_ms.MG", "ms", "patterns.model.MG", timePerRound("patterns.rounds")},
	{"patterns.model_ms.FT", "ms", "patterns.model.FT", timePerRound("patterns.rounds")},
	{"patterns.model_ms.rest", "ms", "patterns.model.rest", timePerRound("patterns.rounds")},
	{"patterns.estimator_calls", "count", "patterns.model", count("patterns.estimator_calls", "patterns.rounds")},
	{"cache.replay_ns_per_ref.Small", "ns", "cache.replay.Small", nsPerUnit("cache.refs.Small")},
	{"cache.replay_ns_per_ref.Large", "ns", "cache.replay.Large", nsPerUnit("cache.refs.Large")},
	{"cache.refs_replayed", "count", "cache.replay", count("cache.refs", "cache.rounds")},
	{"cache.misses", "count", "cache.replay", count("cache.misses", "cache.rounds")},
	{"analytic.solve_us", "us", "analytic.solve", perCall(1)},
	{"dvf.aggregate_us", "us", "dvf.aggregate", perCall(1)},
	{"serve.hit_ms", "ms", "serve.hit", perCall(1e-3)},
	{"serve.program_hit_ms", "ms", "serve.program_hit", perCall(1e-3)},
	{"serve.miss_ms.analytic", "ms", "serve.miss.analytic", perCall(1e-3)},
	{"serve.miss_ms.cgpmac", "ms", "serve.miss.cgpmac", perCall(1e-3)},
	{"serve.miss_ms.aspen", "ms", "serve.miss.aspen", perCall(1e-3)},
	{"serve.select_ms", "ms", "serve.select", perCall(1e-3)},
	{"serve.memo_hit_ratio", "ratio", "serve", ratio("serve.memoized", "serve.analyze")},
	{"serve.program_hit_ratio", "ratio", "serve", ratio("serve.program_hits", "serve.aspen")},
	{"serve.flight_riders", "count", "serve", count("serve.flight_riders", "")},
	{"serve.errors", "count", "serve", count("serve.errors", "")},
	{"aspen.parse_us", "us", "aspen.parse", perCall(1)},
	{"aspen.eval_us", "us", "aspen.eval", perCall(1)},
}

// overheadMetric is the tracing overhead: how much slower the traced
// process's median pass was than its untraced twin's (same seed).
const overheadMetric = "tracing.overhead_pct"

// layers are the repository's layers, in pipeline order, for the
// self-time table; "pass" spans carry the harness's own share.
var layers = []string{"kernels", "trace", "patterns", "cache", "analytic", "dvf", "serve", "aspen"}

// spanStats is a folded trace: self time and count per span name,
// summed over tracks.
type spanStats map[string]struct {
	selfUs float64
	count  int
}

// matching sums the stats of every span named prefix or prefix.*.
func (s spanStats) matching(prefix string) (float64, int) {
	var us float64
	var n int
	for name, st := range s {
		if name == prefix || strings.HasPrefix(name, prefix+".") {
			us += st.selfUs
			n += st.count
		}
	}
	return us, n
}

// foldTrace validates and folds one written trace.
func foldTrace(path string) (spanStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := tracez.ValidateReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := spanStats{}
	for _, ph := range tracez.Fold(events).Phases {
		st := out[ph.Name]
		st.selfUs += ph.SelfUs
		st.count += ph.Count
		out[ph.Name] = st
	}
	return out, nil
}

// tracedProcess is one traced process's folded trace and counters.
type tracedProcess struct {
	role  string
	spans spanStats
	n     counters
}

// layerValues computes every per-layer metric from the workload's traced
// process and the check process.
func layerValues(work, check tracedProcess) (map[string]float64, map[string]string) {
	vals := map[string]float64{}
	from := map[string]string{}
	for _, m := range layerMetrics {
		p := work
		if _, n := work.spans.matching(m.span); n == 0 {
			p = check
		}
		us, n := p.spans.matching(m.span)
		vals[m.name] = m.value(us, n, p.n)
		from[m.name] = p.role
	}
	return vals, from
}

// writeSelfTimes prints each layer's self time per traced process and the
// per-layer metric values with the process they came from.
func writeSelfTimes(w io.Writer, procs []tracedProcess, vals map[string]float64, from map[string]string) {
	fmt.Fprintf(w, "per-layer self time (ms, from tracez.Fold of the traced processes):\n")
	fmt.Fprintf(w, "  %-10s", "layer")
	for _, p := range procs {
		fmt.Fprintf(w, " %14s", p.role)
	}
	fmt.Fprintln(w)
	for _, l := range append(append([]string(nil), layers...), "pass", "check") {
		fmt.Fprintf(w, "  %-10s", l)
		for _, p := range procs {
			us, _ := p.spans.matching(l)
			fmt.Fprintf(w, " %14.3f", us/1e3)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-layer metrics:\n")
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %16.6g  (%s)\n", n, vals[n], from[n])
	}
}
