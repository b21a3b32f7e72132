// Command dvf-trace captures a kernel's memory-reference trace to disk and
// replays stored traces against arbitrary cache configurations — the
// capture-once / simulate-many workflow the paper uses with its Pin
// traces ("the cache simulation is very time consuming with the memory
// traces of the large input problem sizes").
//
// Capture:
//
//	dvf-trace -record -kernel FT -out ft.trace
//
// Replay:
//
//	dvf-trace -replay ft.trace -cache small
//	dvf-trace -replay ft.trace -all
//
// Replay memory-maps the columnar trace file and feeds the cache
// simulator RefBatch blocks — zero-copy on little-endian machines.
//
// Trace-free analysis:
//
//	dvf-trace -engine analytic -kernel CG -cache large
//	dvf-trace -engine analytic -kernel FT -all
//
// The analytic engine skips the trace entirely: it solves the kernel's
// affine access pattern symbolically and prints the same per-structure
// main-memory access table a replay would, in microseconds. It applies to
// the affine Table II kernels (VM, CG, MG, FT); the data-dependent ones
// (NB, MC) need a real trace.
//
// Usage errors (an unknown -cache or -engine, -record without -out,
// stray arguments) exit with status 2; a failed run exits with status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/obs"
	"github.com/resilience-models/dvf/internal/trace"
	"github.com/resilience-models/dvf/internal/tracez"
)

var tableIV = map[string]cache.Config{
	"small": cache.Small,
	"large": cache.Large,
	"16kb":  cache.Profile16KB,
	"128kb": cache.Profile128KB,
	"1mb":   cache.Profile1MB,
	"8mb":   cache.Profile8MB,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, parameterized over its arguments and output
// streams so main_test.go can drive it in-process. It returns the exit
// status: 0 on success, 1 on a failed run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvf-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.Bool("record", false, "record a kernel trace")
	kernel := fs.String("kernel", "VM", "kernel to record (Table II code)")
	out := fs.String("out", "", "output trace file (record mode)")
	replay := fs.String("replay", "", "trace file to replay")
	cacheName := fs.String("cache", "small", "cache to replay against")
	all := fs.Bool("all", false, "replay against every Table IV cache")
	engine := fs.String("engine", "replay", "analysis engine: replay (trace-driven) or analytic (trace-free, affine kernels)")
	o := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dvf-trace: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	var configs []cache.Config
	if *all {
		configs = append(cache.VerificationConfigs(), cache.ProfilingConfigs()...)
	} else if cfg, ok := tableIV[strings.ToLower(*cacheName)]; ok {
		configs = []cache.Config{cfg}
	}

	var do func() error
	switch {
	case *engine != "replay" && *engine != "analytic":
		return usage("unknown -engine %q (want replay or analytic)", *engine)
	case *engine == "replay" && *record:
		if *out == "" {
			return usage("-record requires -out")
		}
		do = func() error { return doRecord(stdout, *kernel, *out, o.Sink(), o.Tracer()) }
	case *engine == "analytic" || *replay != "":
		if configs == nil {
			return usage("unknown -cache %q", *cacheName)
		}
		do = func() error {
			for _, cfg := range configs {
				var err error
				if *engine == "analytic" {
					err = doAnalytic(stdout, *kernel, cfg)
				} else {
					err = doReplay(stdout, *replay, cfg, o.Sink(), o.Tracer())
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
	default:
		fs.Usage()
		return 2
	}
	defer o.Start()()
	if err := do(); err != nil {
		fmt.Fprintf(stderr, "dvf-trace: %v\n", err)
		return 1
	}
	return 0
}

// doAnalytic solves a kernel's affine access pattern for one cache and
// prints the predicted per-structure main-memory access counts — the
// trace-free counterpart of recording and replaying it.
func doAnalytic(stdout io.Writer, code string, cfg cache.Config) error {
	k, err := kernels.ByName(code)
	if err != nil {
		return err
	}
	d, ok := kernels.Affine(k)
	if !ok {
		return fmt.Errorf("%s has no affine access pattern; record a trace and use -replay", k.Name())
	}
	prof, err := analytic.Solve(d, cfg)
	if err != nil {
		return err
	}
	tol := analytic.Tolerance(k.Name(), cfg)
	fmt.Fprintf(stdout, "%s on %s (engine=analytic, tolerance %g)\n", prof.Kernel, prof.Cache, tol)
	fmt.Fprintf(stdout, "%-8s %12s %16s\n", "struct", "lines", "mem accesses")
	for _, s := range prof.Structures {
		fmt.Fprintf(stdout, "%-8s %12d %16.1f\n", s.Name, s.Lines, s.Misses)
	}
	fmt.Fprintf(stdout, "%-8s %12s %16.1f\n", "total", "", prof.TotalMisses())
	return nil
}

func doRecord(stdout io.Writer, code, out string, sink metrics.Sink, tz tracez.Recorder) error {
	k, err := kernels.ByName(code)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close() // error paths only; the success path checks Close below

	// The container header carries the region table, which is only fully
	// known after the run (kernels may allocate auxiliary regions such as
	// CG's q); capture the stream in memory first, then reconstruct the
	// table from the observed ranges and write the file.
	rec := &trace.Recorder{}
	sw := sink.Timer("trace.record_ns").Start()
	info, err := kernels.RunTraced(k, trace.Instrumented(rec, sink, "trace.record"), tz)
	sw.Stop()
	if err != nil {
		return err
	}
	sp := tz.Track("trace.encode").Begin("encode " + out)
	w := trace.NewWriterV2(f, kernelRegistry(info, rec))
	for i, r := range rec.Refs {
		w.Access(r, rec.Owners[i])
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	sp.EndInt("refs", int64(len(rec.Refs)))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s: %d references, %d structures -> %s (v2)\n",
		info.Kernel, len(rec.Refs), len(info.Structures), out)
	return nil
}

// kernelRegistry reconstructs a registry matching the recorded stream: it
// derives each region's span from the recorded references per owner.
func kernelRegistry(info *kernels.RunInfo, rec *trace.Recorder) *trace.Registry {
	// Region IDs in the stream are 1-based allocation order; rebuild with
	// the same bases by scanning the observed address ranges.
	type span struct{ lo, hi uint64 }
	spans := map[int32]*span{}
	for i, r := range rec.Refs {
		o := rec.Owners[i]
		s, ok := spans[o]
		if !ok {
			spans[o] = &span{lo: r.Addr, hi: r.Addr + uint64(r.Size)}
			continue
		}
		if r.Addr < s.lo {
			s.lo = r.Addr
		}
		if end := r.Addr + uint64(r.Size); end > s.hi {
			s.hi = end
		}
	}
	names := map[int32]string{}
	for _, st := range info.Structures {
		names[st.ID] = st.Name
	}
	reg := trace.NewRegistry()
	maxID := int32(0)
	for id := range spans {
		if id > maxID {
			maxID = id
		}
	}
	for id := int32(1); id <= maxID; id++ {
		name := names[id]
		if name == "" {
			name = fmt.Sprintf("aux%d", id)
		}
		s := spans[id]
		if s == nil {
			reg.Alloc(name, 0)
			continue
		}
		reg.Alloc(name, s.hi-s.lo)
	}
	return reg
}

func doReplay(stdout io.Writer, path string, cfg cache.Config, sink metrics.Sink, tz tracez.Recorder) error {
	tf, err := trace.OpenTraceFile(path)
	if err != nil {
		return err
	}
	defer tf.Close()
	sim, err := cache.NewSimulator(cfg)
	if err != nil {
		return err
	}
	sim.Trace(tz)
	consume := trace.InstrumentedBatch(trace.BatchConsumerFunc(sim.AccessBatch), sink, "trace.replay")
	sw := sink.Timer("trace.replay_ns").Start()
	sp := tz.Track("trace.replay").Begin("replay " + cfg.Name)
	err = tf.Replay(trace.DefaultBatch, consume.AccessBatch)
	sp.End()
	sw.Stop()
	if err != nil {
		return err
	}
	for _, r := range tf.Regions {
		sim.Label(cache.StructID(r.ID), r.Name)
	}
	sim.PublishStats(sink, "cache.replay")
	_, err = io.WriteString(stdout, sim.Report())
	return err
}
