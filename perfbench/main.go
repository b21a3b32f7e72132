// Command perfbench is the DVF toolkit's end-to-end benchmark. It runs one
// of three workloads, each dominated by a different layer, checks every
// output against the repository's goldens or a direct call, and prints
// one JSON result line:
//
//	profile  the Figure 5 DVF profile (kernels, patterns, dvf)
//	replay   the Figure 4 simulator side (trace, cache, analytic)
//	whatif   dvf-serve under a closed loop of seeded requests (serve, aspen)
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload profile --seed 1 --seconds 18 --trace 0
//
// A run is a fixed amount of work chosen from --seed and sized from
// --seconds; it is never cut by the clock. It consists of several fresh
// processes of the same binary, run one after another: three that each
// set up the workload and time their passes, and one check process that
// exercises, against references, every layer the workload leaves off its
// timed path. With --trace 1 the run instead times one untraced and one
// traced workload process with the same seed plus a traced check
// process, and reports per-layer metrics from the traces. README.md
// explains the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		role     = flag.String("child", "", "internal: run one benchmark process with this role")
		workload = flag.String("workload", "", "workload: profile, replay or whatif")
		seed     = flag.Uint64("seed", 1, "seed choosing the run's inputs and orders")
		seconds  = flag.Int("seconds", 18, "nominal timed seconds of the run; sets the amount of work")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		flame    = flag.String("flame", "", "dvf-flame binary that validates written traces")
		out      = flag.String("out", "bench-out", "directory for traces and process outputs")
		count    = flag.Int("count", 0, "internal: timed passes or requests of a child")
		traced   = flag.Bool("traced", false, "internal: record spans in a child")
		modelChk = flag.Bool("model-check", false, "internal: evaluate the models after the replay passes")
		t0       = flag.Int64("t0", 0, "internal: the parent's clock when it started the child (Unix ns)")
		traceOut = flag.String("trace-out", "", "internal: where a traced child writes its trace")
	)
	flag.Parse()
	if *role != "" {
		os.Exit(childMain(childArgs{
			role: *role, workload: *workload, seed: *seed, count: *count,
			traced: *traced, modelCheck: *modelChk, t0: time.Unix(0, *t0),
		}, *traceOut))
	}
	if err := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		flame: *flame, out: *out,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childMain runs one benchmark process and prints its result line.
func childMain(a childArgs, traceOut string) int {
	c := newCtx(a.role, a.traced)
	if err := runChild(c, a); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", a.role, err)
		return 1
	}
	if err := c.writeTrace(traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", a.role, err)
		return 1
	}
	if err := printJSON(os.Stdout, c.res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", a.role, err)
		return 1
	}
	return 0
}
