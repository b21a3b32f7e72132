// Command dvf-profile regenerates Figure 5 of the DVF paper: the DVF of
// every major data structure of the six kernels at the Table VI input
// sizes, across the four profiling cache configurations of Table IV.
//
//	-csv        emit machine-readable CSV instead of the table
//	-workers N  how many profiling cells run at once: 0 (default) all,
//	            1 strictly sequential, N>1 at most N. Negative values are
//	            a usage error (exit status 2).
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
	fs := flag.NewFlagSet("dvf-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvOut := fs.Bool("csv", false, "emit CSV instead of the table")
	workers := fs.Int("workers", 0, "profiling cells in flight (0 = all at once, 1 = sequential)")
	o := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "dvf-profile: -workers must be >= 0, got %d\n", *workers)
		fs.Usage()
		return 2
	}
	defer o.Start()()
	res, err := experiments.RunFig5(experiments.Options{Workers: *workers, Sink: o.Sink(), Tracer: o.Tracer()})
	if err == nil {
		if *csvOut {
			err = res.WriteCSV(stdout)
		} else {
			_, err = io.WriteString(stdout, res.Render())
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "dvf-profile: %v\n", err)
		return 1
	}
	return 0
}
