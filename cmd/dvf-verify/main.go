// Command dvf-verify regenerates Figure 4 of the DVF paper: it runs the six
// verification kernels through the cache simulator and compares the CGPMAC
// analytical estimates against the simulated main-memory access counts.
//
//	-engine E   replay (default) reproduces Figure 4 through the trace
//	            replay pipeline; analytic runs the trace-free analytic
//	            engine's live differential instead — every affine kernel
//	            solved symbolically and checked against the sequential
//	            simulator, exiting nonzero on any tolerance breach
//	-csv        emit machine-readable CSV instead of the table
//	-workers N  how many (kernel, cache) cells run at once: 0 (default)
//	            fans all of them out concurrently, 1 falls back to the
//	            strictly sequential path, N>1 keeps at most N in flight.
//	            Negative values are a usage error (exit status 2). The
//	            output is identical for every setting.
//	-metrics X  dump a pipeline metrics snapshot on exit (internal/obs)
//	-pprof P    write P.cpu.pprof and P.heap.pprof profiles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI, parameterized over its arguments and output
// streams so main_test.go can drive it in-process. It returns the exit
// status: 0 on success, 1 on a failed run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvf-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engine := fs.String("engine", "replay", "verification engine: replay or analytic")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the table")
	workers := fs.Int("workers", 0, "cells in flight (0 = all at once, 1 = sequential)")
	o := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "dvf-verify: -workers must be >= 0, got %d\n", *workers)
		fs.Usage()
		return 2
	}
	defer o.Start()()
	opts := experiments.Options{Workers: *workers, Sink: o.Sink(), Tracer: o.Tracer()}
	if err := verify(*engine, *csvOut, opts, stdout); err != nil {
		fmt.Fprintf(stderr, "dvf-verify: %v\n", err)
		return 1
	}
	return 0
}

func verify(engine string, csvOut bool, o experiments.Options, stdout io.Writer) error {
	type report interface {
		WriteCSV(io.Writer) error
		Render() string
	}
	var res report
	check := func() error { return nil }
	switch engine {
	case "replay":
		fig4, err := experiments.RunFig4(o)
		if err != nil {
			return err
		}
		res = fig4
	case "analytic":
		diff, err := experiments.RunAnalyticDiff(o)
		if err != nil {
			return err
		}
		// The live differential is a gate, not just a report: any
		// structure outside the documented tolerance is a hard failure.
		res, check = diff, diff.Check
	default:
		return fmt.Errorf("unknown -engine %q (want replay or analytic)", engine)
	}
	var err error
	if csvOut {
		err = res.WriteCSV(stdout)
	} else {
		_, err = io.WriteString(stdout, res.Render())
	}
	if err != nil {
		return err
	}
	return check()
}
