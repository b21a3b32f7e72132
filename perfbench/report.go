package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// report assembles a run's result and its human-readable preamble.
type report struct {
	cfg     runConfig
	count   int
	res     result
	notes   bytes.Buffer // steadiness output, printed before the result line
	classOK bool
}

func newReport(cfg runConfig, count int, work []*process, check *process) *report {
	r := &report{cfg: cfg, count: count, classOK: true}
	r.res.Metrics = map[string]metric{}
	for _, p := range append(append([]*process(nil), work...), check) {
		r.res.Attempted += p.res.Ops
		r.res.Failed += p.res.Failed
		for _, f := range p.res.Failures {
			fmt.Fprintf(&r.notes, "FAILED (%s process): %s\n", p.res.Role, f)
		}
	}
	fmt.Fprintf(&r.notes, "perfbench %s seed %d: %d workload processes x %d %s, then a check process\n",
		cfg.workload, cfg.seed, len(work), count, map[bool]string{true: "requests", false: "passes"}[cfg.workload == "whatif"])
	if cfg.workload == "whatif" {
		// Each process's percentiles are reported (their median over the
		// processes is the run's), so each must sit inside one class.
		for i, p := range work {
			if p.traced {
				continue
			}
			lat, cls := requestLatencies(p)
			infos, ms := classMargins(lat, cls, classNames[:], []float64{50, 99})
			writeClassReport(&r.notes, fmt.Sprintf("process %d", i), len(lat), infos, ms)
			for _, m := range ms {
				r.classOK = r.classOK && m.ok()
			}
			r.steadiness(fmt.Sprintf("process %d request latency (ms)", i), lat)
		}
	}
	return r
}

// steadiness prints a timing's sample count and quartiles.
func (r *report) steadiness(what string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	fmt.Fprintf(&r.notes, "  %-44s n=%-6d q1=%-12.6g median=%-12.6g q3=%-12.6g spread=%.2f%%\n",
		what, len(xs), q1, med, q3, 100*(q3-q1)/med)
}

func (r *report) put(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// requestLatencies returns a whatif process's request latencies (ms)
// and classes.
func requestLatencies(p *process) ([]float64, []int) {
	lat := make([]float64, len(p.res.Requests))
	cls := make([]int, len(p.res.Requests))
	for i, q := range p.res.Requests {
		lat[i], cls[i] = float64(q.Ns)/1e6, q.Class
	}
	return lat, cls
}

// endToEnd derives the end-to-end metrics from the untraced processes.
// Every timing is first summarized per process and the run reports the
// median over its processes, so one process caught in a slow stretch of
// the host does not move the run's figures.
func (r *report) endToEnd(work []*process, check *process) {
	var setup, rss, passS, opsPerS, p50, p99 []float64
	for i, p := range work {
		setup = append(setup, float64(p.res.SetupNs)/1e9)
		rss = append(rss, p.rssMB)
		passes := make([]float64, len(p.res.PassNs))
		for j, ns := range p.res.PassNs {
			passes[j] = float64(ns) / 1e9
		}
		pass := median(passes)
		passS = append(passS, pass)
		var ops float64 // operations of one pass
		switch r.cfg.workload {
		case "profile":
			ops = p.res.Counters["dvf.aggregates"]
		case "replay":
			ops = p.res.Counters["cache.refs"]
		case "whatif":
			ops = float64(len(p.res.Requests))
		}
		opsPerS = append(opsPerS, ops/float64(len(passes))/pass)
		r.steadiness(fmt.Sprintf("process %d pass time (s)", i), passes)

		// A batch workload's unit of latency is one whole pass; whatif's
		// is one request.
		lat := make([]float64, len(passes))
		for j, s := range passes {
			lat[j] = s * 1e3
		}
		if r.cfg.workload == "whatif" {
			lat, _ = requestLatencies(p)
		}
		sort.Float64s(lat)
		rank, pct := tailRank(len(lat))
		if pct == 50 {
			fmt.Fprintf(&r.notes, "  process %d latency over %d samples: no percentile has ten samples beyond it, so its p99_ms is the median\n", i, len(lat))
		} else {
			fmt.Fprintf(&r.notes, "  process %d latency over %d samples: its p99_ms is p%.4g (rank %d), the highest percentile up to p99 with ten samples beyond it\n",
				i, len(lat), pct, rank+1)
		}
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, lat[rank])
	}
	r.steadiness("setup_s (s, one per process)", setup)
	r.steadiness("pass_s (s, median pass of each process)", passS)
	r.steadiness("rss peak (MB, one per process)", rss)

	r.put("setup_s", "s", median(setup))
	r.put("rss_peak_mb", "MB", median(rss))
	r.put("ok_frac", "ratio", float64(r.res.Attempted-r.res.Failed)/float64(max(1, r.res.Attempted)))
	r.put("pass_s", "s", median(passS))
	r.put("ops_per_s", "1/s", median(opsPerS))
	r.put("p50_ms", "ms", median(p50))
	r.put("p99_ms", "ms", median(p99))

	var errPct *float64
	for _, p := range append(append([]*process(nil), work...), check) {
		if p.res.ModelErrPct != nil {
			errPct = p.res.ModelErrPct
		}
	}
	if errPct == nil {
		fmt.Fprintf(&r.notes, "FAILED: no process evaluated the Figure 4 model error\n")
		r.res.Failed++
		r.res.Attempted++
		r.put("model_err_pct", "%", 0)
	} else {
		r.put("model_err_pct", "%", *errPct)
	}
}

// layerMetrics validates the traces with dvf-flame -check, folds them,
// and derives the per-layer metrics and the tracing overhead.
func (r *report) layerMetrics(cfg runConfig, untraced, traced, check *process) error {
	var procs []tracedProcess
	for _, p := range []*process{traced, check} {
		path := p.res.TracePath
		if err := flameCheck(cfg.flame, path); err != nil {
			fmt.Fprintf(&r.notes, "FAILED: %v\n", err)
			r.res.Failed++
			r.res.Attempted++
		} else {
			r.res.Attempted++
			fmt.Fprintf(&r.notes, "trace %s passes dvf-flame -check\n", path)
		}
		spans, err := foldTrace(path)
		if err != nil {
			return err
		}
		role := p.res.Role
		if p == traced {
			role += " (traced)"
		}
		procs = append(procs, tracedProcess{role: role, spans: spans, n: p.res.Counters})
	}
	vals, from := layerValues(procs[0], procs[1])
	for _, m := range layerMetrics {
		r.put(m.name, m.unit, vals[m.name])
	}
	u, t := medianNs(untraced.res.PassNs), medianNs(traced.res.PassNs)
	overhead := (t/u - 1) * 100
	r.put(overheadMetric, "%", overhead)
	vals[overheadMetric], from[overheadMetric] = overhead, "traced vs untraced pass"
	writeSelfTimes(&r.notes, procs, vals, from)
	return nil
}

// flameCheck runs the repository's trace validator on a written trace.
func flameCheck(flame, path string) error {
	if flame == "" {
		return fmt.Errorf("no dvf-flame binary given (--flame)")
	}
	cmd := exec.Command(flame, "-check", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("dvf-flame -check %s: %w", path, err)
	}
	if !strings.Contains(string(out), "valid trace") {
		return fmt.Errorf("dvf-flame -check %s: unexpected output %q", path, out)
	}
	return nil
}

func medianNs(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

// print writes the preamble and then the result as the last line.
func (r *report) print(w io.Writer) error {
	r.res.Correct = r.res.Failed == 0 && r.classOK
	if !r.classOK {
		fmt.Fprintf(&r.notes, "FAILED: a whatif percentile rank sits on a request-class boundary\n")
	}
	if _, err := w.Write(r.notes.Bytes()); err != nil {
		return err
	}
	return printJSON(w, r.res)
}
