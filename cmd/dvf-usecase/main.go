// Command dvf-usecase regenerates the two use cases of Section V of the
// DVF paper: the CG-vs-PCG algorithm-optimization study (Figure 6) and the
// ECC protection trade-off (Figure 7).
//
//	-case cgpcg|ecc|all   which use case to run
//	-csv                  emit machine-readable CSV instead of the tables
//	-plot                 draw the figures as ASCII charts
//
// An unknown -case is a usage error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/obs"
	"github.com/resilience-models/dvf/internal/plot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the common shape of the Figure 6 and Figure 7 results.
type report interface {
	WriteCSV(io.Writer) error
	Render() string
}

// run is the whole CLI, parameterized over its arguments and output
// streams so main_test.go can drive it in-process. It returns the exit
// status: 0 on success, 1 on a failed run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvf-usecase", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.String("case", "all", "use case to run: cgpcg, ecc or all")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the tables")
	plotOut := fs.Bool("plot", false, "draw the figures as ASCII charts")
	o := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *which {
	case "cgpcg", "ecc", "all":
	default:
		fmt.Fprintf(stderr, "dvf-usecase: unknown -case %q (want cgpcg, ecc or all)\n", *which)
		fs.Usage()
		return 2
	}
	defer o.Start()()
	opts := experiments.Options{Sink: o.Sink(), Tracer: o.Tracer()}
	if err := usecase(*which, *csvOut, *plotOut, opts, stdout); err != nil {
		fmt.Fprintf(stderr, "dvf-usecase: %v\n", err)
		return 1
	}
	return 0
}

func usecase(which string, csvOut, plotOut bool, o experiments.Options, stdout io.Writer) error {
	if which == "cgpcg" || which == "all" {
		res, err := experiments.RunFig6(o)
		if err != nil {
			return err
		}
		if err := emit(res, csvOut, plotOut, plotFig6, stdout); err != nil {
			return err
		}
	}
	if which == "ecc" || which == "all" {
		res, err := experiments.RunFig7(o)
		if err != nil {
			return err
		}
		if err := emit(res, csvOut, plotOut, plotFig7, stdout); err != nil {
			return err
		}
	}
	return nil
}

// emit writes one figure as CSV, an ASCII chart or the table.
func emit[R report](res R, csvOut, plotOut bool, draw func(R) (string, error), stdout io.Writer) error {
	var (
		out string
		err error
	)
	switch {
	case csvOut:
		return res.WriteCSV(stdout)
	case plotOut:
		out, err = draw(res)
	default:
		out = res.Render()
	}
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, out)
	return err
}

// plotFig6 draws the CG-vs-PCG DVF curves on a log axis, the paper's
// Figure 6 presentation.
func plotFig6(res *experiments.Fig6Result) (string, error) {
	var xs, cg, pcg []float64
	for _, pt := range res.Points {
		xs = append(xs, float64(pt.N))
		cg = append(cg, pt.CGDVF)
		pcg = append(pcg, pt.PCGDVF)
	}
	return plot.Render(plot.Config{
		Title:  "Figure 6: CG vs PCG",
		XLabel: "problem size n",
		YLabel: "DVF (log)",
		LogY:   true,
	},
		plot.Series{Name: "CG", X: xs, Y: cg},
		plot.Series{Name: "PCG", X: xs, Y: pcg},
	)
}

// plotFig7 draws the ECC degradation sweep, one curve per mechanism.
func plotFig7(res *experiments.Fig7Result) (string, error) {
	var series []plot.Series
	for _, s := range res.Series {
		var xs, ys []float64
		for _, pt := range s.Points {
			xs = append(xs, pt.DegradationPct)
			ys = append(ys, pt.DVF)
		}
		series = append(series, plot.Series{Name: s.Mechanism.Name, X: xs, Y: ys})
	}
	return plot.Render(plot.Config{
		Title:  "Figure 7: impact of ECC on DVF",
		XLabel: "performance degradation (%)",
		YLabel: "DVF (log)",
		LogY:   true,
	}, series...)
}
