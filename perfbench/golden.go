package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// The reference outputs are the repository's own golden CSVs, read at
// run time so the benchmark can never drift from what the tests pin.
// Like golden_test.go they encode exact float formatting and are pinned
// to amd64; elsewhere the golden comparisons are skipped.
var (
	fig4Path = filepath.Join("internal", "experiments", "testdata", "fig4.csv")
	fig5Path = filepath.Join("internal", "experiments", "testdata", "fig5.csv")
)

// goldensApply reports whether the exact golden comparisons hold on
// this platform.
func goldensApply() bool { return runtime.GOARCH == "amd64" }

// fig4Cell is one Figure 4 row: the CGPMAC estimate and the simulated
// miss count of one structure of one kernel on one verification cache.
type fig4Cell struct {
	Model, Simulated float64
}

// fig4Golden maps "kernel|cache|structure" to the fig4.csv row.
type fig4Golden map[string]fig4Cell

// fig5Golden maps "kernel|cache|structure" (structure "DVF_a" for the
// aggregate) to the fig5.csv DVF.
type fig5Golden map[string]float64

func cellKey(kernel, cacheName, structure string) string {
	return kernel + "|" + cacheName + "|" + structure
}

func readCSV(path string, header []string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 || fmt.Sprint(rows[0]) != fmt.Sprint(header) {
		return nil, fmt.Errorf("%s: unexpected header", path)
	}
	return rows[1:], nil
}

func parseFloat(path, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func loadFig4(path string) (fig4Golden, error) {
	rows, err := readCSV(path, []string{"kernel", "cache", "structure", "model", "simulated", "error_pct"})
	if err != nil {
		return nil, err
	}
	g := fig4Golden{}
	for _, r := range rows {
		model, err := parseFloat(path, r[3])
		if err != nil {
			return nil, err
		}
		sim, err := parseFloat(path, r[4])
		if err != nil {
			return nil, err
		}
		g[cellKey(r[0], r[1], r[2])] = fig4Cell{Model: model, Simulated: sim}
	}
	return g, nil
}

func loadFig5(path string) (fig5Golden, error) {
	rows, err := readCSV(path, []string{"kernel", "cache", "structure", "dvf"})
	if err != nil {
		return nil, err
	}
	g := fig5Golden{}
	for _, r := range rows {
		v, err := parseFloat(path, r[3])
		if err != nil {
			return nil, err
		}
		g[cellKey(r[0], r[1], r[2])] = v
	}
	return g, nil
}

// sameFloat is bit equality: the goldens are written with the shortest
// round-tripping formatting, so a value off by one ulp differs here.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check compares one computed value against its golden, returning a
// description of the mismatch or "".
func (g fig5Golden) check(kernel, cacheName, structure string, got float64) string {
	want, ok := g[cellKey(kernel, cacheName, structure)]
	switch {
	case !ok:
		return fmt.Sprintf("fig5 %s/%s/%s: no golden row", kernel, cacheName, structure)
	case !sameFloat(got, want):
		return fmt.Sprintf("fig5 %s/%s/%s: got %v, golden %v", kernel, cacheName, structure, got, want)
	}
	return ""
}
