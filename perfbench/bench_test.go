package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/kernels"
)

// The tests run in the benchmark's directory; the repository is its parent.
var repoRoot = ".."

func sources(t *testing.T) []string {
	t.Helper()
	s, err := loadAspenSources(filepath.Join(repoRoot, aspenDir))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sequence(t *testing.T, seed uint64, n int) []request {
	t.Helper()
	reqs, err := genRequests(seed, n, sources(t))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func bodies(reqs []request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.Path + " " + string(r.Body)
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	a, b := sequence(t, 7, 1500), sequence(t, 7, 1500)
	if !reflect.DeepEqual(bodies(a), bodies(b)) {
		t.Error("seed 7 produced two different request sequences")
	}
	if c := sequence(t, 8, 1500); reflect.DeepEqual(bodies(a), bodies(c)) {
		t.Error("seeds 7 and 8 produced the same request sequence")
	}
}

func TestSameSeedSameOrders(t *testing.T) {
	order := func(seed uint64) string {
		rng := rand.New(rand.NewPCG(seed, 0x0bad_5eed))
		var b strings.Builder
		for _, k := range shuffledKernels(rng, kernels.ProfilingSuite()) {
			b.WriteString(k.Name())
		}
		for _, p := range replayPairs(rng, 6) {
			fmt.Fprintf(&b, " %d/%s", p.rec, cacheLabel(p.cache))
		}
		return b.String()
	}
	if order(3) != order(3) {
		t.Error("seed 3 produced two different pass orders")
	}
	if order(3) == order(4) {
		t.Error("seeds 3 and 4 produced the same pass orders")
	}
	if subSeed(5, 0) == subSeed(5, 1) || subSeed(5, 0) == subSeed(6, 0) {
		t.Error("process seeds collide")
	}
}

// TestSequenceMix checks the properties the whatif metrics rely on: exact
// class counts, about two thirds repeats, and every repeat at least
// reuseGap requests after its key's first issue.
func TestSequenceMix(t *testing.T) {
	const n = 2000
	reqs := sequence(t, 11, n)
	counts := make([]int, numClasses)
	first := map[string]int{}
	for i, r := range reqs {
		counts[r.Class]++
		at, seen := first[r.Key]
		repeat := r.Class == clsHit || r.Class == clsProgramHit
		switch {
		case repeat && !seen:
			t.Fatalf("request %d repeats a key never issued", i)
		case repeat && i-at < reuseGap:
			t.Fatalf("request %d repeats a key issued only %d requests earlier", i, i-at)
		case !repeat && seen && r.Class != clsSelect:
			t.Fatalf("request %d is a first issue of a key issued at %d", i, at)
		}
		if !seen {
			first[r.Key] = i
		}
	}
	for cls := clsProgramHit; cls < numClasses; cls++ {
		if want := n * mixPerMille[cls] / 1000; counts[cls] != want {
			t.Errorf("%s: %d requests, want %d", classNames[cls], counts[cls], want)
		}
	}
	if share := float64(counts[clsHit]+counts[clsProgramHit]) / n; math.Abs(share-2.0/3) > 0.02 {
		t.Errorf("repeat share %.3f, want about two thirds", share)
	}
}

// TestGeneratedRequestsAnswerable evaluates every generated Aspen source
// and select question directly: none may fail, or the service would
// answer an error and the workload would not be failure-free.
func TestGeneratedRequestsAnswerable(t *testing.T) {
	c := newCtx("test", false)
	for _, seed := range []uint64{1, 2, 3} {
		for _, r := range sequence(t, seed, 3000) {
			var err error
			switch {
			case r.aspen != nil:
				_, err = expectAspen(c, 0, r.aspen.Source)
			case r.sel != nil:
				_, err = expectSelect(*r.sel)
			}
			if err != nil {
				t.Fatalf("seed %d: %s %s: %v", seed, r.Path, r.Body, err)
			}
		}
	}
}

func TestGoldenCatchesOneULP(t *testing.T) {
	g5, err := loadFig5(filepath.Join(repoRoot, fig5Path))
	if err != nil {
		t.Fatal(err)
	}
	const k, cacheName, st = "CG", "16KB (Profiling)", "A"
	want, ok := g5[cellKey(k, cacheName, st)]
	if !ok {
		t.Fatal("fig5.csv has no CG/16KB/A row")
	}
	if msg := g5.check(k, cacheName, st, want); msg != "" {
		t.Errorf("exact value rejected: %s", msg)
	}
	for _, off := range []float64{math.Nextafter(want, math.Inf(1)), math.Nextafter(want, math.Inf(-1))} {
		if g5.check(k, cacheName, st, off) == "" {
			t.Errorf("value %v one ulp from the golden %v passed", off, want)
		}
	}
	g4, err := loadFig4(filepath.Join(repoRoot, fig4Path))
	if err != nil {
		t.Fatal(err)
	}
	row := g4[cellKey("NB", "Small (Verification)", "T")]
	if row.Simulated != 74093 || sameFloat(row.Model, math.Nextafter(row.Model, 0)) {
		t.Errorf("fig4.csv NB/Small/T row %+v not read exactly", row)
	}
}

// mix builds a synthetic request mix: counts[i] requests of class i, all
// at latency float64(i+1).
func mix(counts ...int) ([]float64, []int) {
	var lat []float64
	var cls []int
	for c, n := range counts {
		for i := 0; i < n; i++ {
			lat = append(lat, float64(c+1))
			cls = append(cls, c)
		}
	}
	return lat, cls
}

func TestClassMarginRejectsBoundary(t *testing.T) {
	names := []string{"cheap", "costly", "heavy"}
	lat, cls := mix(500, 480, 20)
	_, ms := classMargins(lat, cls, names, []float64{50})
	if ms[0].ok() {
		t.Errorf("p50 on the cheap/costly boundary accepted: %+v", ms[0])
	}
	lat, cls = mix(600, 360, 40)
	_, ms = classMargins(lat, cls, names, []float64{50, 99})
	for _, m := range ms {
		if !m.ok() {
			t.Errorf("p%g well inside %s rejected: %+v", m.p, m.class, m)
		}
	}
	if ms[0].class != "cheap" || ms[1].class != "heavy" {
		t.Errorf("p50 in %s, p99 in %s; want cheap and heavy", ms[0].class, ms[1].class)
	}
	lat, cls = mix(600, 390, 10)
	if _, ms = classMargins(lat, cls, names, []float64{99}); ms[0].ok() {
		t.Errorf("p99 on the costly/heavy boundary accepted: %+v", ms[0])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartiles(xs); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, _, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v", q1, q3)
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, rank int
		p       float64
	}{
		{9000, 8909, 99}, // p99 with 90 samples beyond
		{1000, 989, 99},  // exactly ten beyond
		{63, 52, 100 * 53.0 / 63},
		{3, 1, 50}, // too few for any tail: the median
	} {
		if r, p := tailRank(c.n); r != c.rank || p != c.p {
			t.Errorf("tailRank(%d) = %d, p%g; want %d, p%g", c.n, r, p, c.rank, c.p)
		}
	}
}

// TestWhatifSession runs a short sequence against a live service, traced,
// and checks every response against the direct call; run it with -race
// to cover the clients and the reference workers.
func TestWhatifSession(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a service and evaluates kernels")
	}
	c := newCtx("test", true)
	reqs := sequence(t, 5, 200)
	if err := whatifSession(c, reqs, nil, true); err != nil {
		t.Fatal(err)
	}
	if c.res.Failed != 0 || c.res.Ops != len(reqs)+1 {
		t.Fatalf("%d of %d checks failed: %v", c.res.Failed, c.res.Ops, c.res.Failures)
	}
	if len(c.res.PassNs) != 1 || len(c.res.Requests) != len(reqs) {
		t.Errorf("recorded %d sequences and %d requests", len(c.res.PassNs), len(c.res.Requests))
	}
	n := counters(c.res.Counters)
	if n["serve.analyze"] == 0 || n["serve.memoized"] == 0 || n["serve.aspen"] == 0 {
		t.Errorf("counters %v miss a cache outcome", n)
	}
}
