package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/serve"
)

// Request classes of the whatif mix. The generator fixes how many
// requests of each class a sequence holds; the class-margin check then
// confirms that p50 and p99 each sit well inside one class.
const (
	clsHit        = iota // repeated analyze key: answered from the memo
	clsProgramHit        // repeated Aspen source: compiled program reused
	clsSelect            // select-protection: never cached
	clsMissCG            // new analyze key, engine analytic, kernel CG
	clsMissMG            // new analyze key, engine analytic, kernel MG
	clsMissLight         // new analyze key, engine analytic, kernel VM or FT
	clsMissCGPMAC        // new analyze key, engine cgpmac, kernel VM, NB, FT or MC
	clsMissAspen         // new Aspen source
	numClasses
)

// classNames are the class labels; "serve."+name is the request span.
var classNames = [numClasses]string{
	"hit", "program_hit", "select",
	"miss.analytic.CG", "miss.analytic.MG", "miss.analytic.light",
	"miss.cgpmac", "miss.aspen",
}

// mixPerMille is each class's share of a sequence. Two thirds repeat a
// key (hit + program_hit). The heavy misses (analytic CG and MG) are 7%,
// and CG alone, the slowest class, holds the top 4% of latencies so p99
// falls inside it; the memo hits hold the 60% around p50. cgpmac CG and
// MG (50-230 ms each) are left out: their cost is the profile workload's.
var mixPerMille = [numClasses]int{600, 60, 80, 40, 30, 40, 90, 60}

// reuseGap is how many requests must separate a repeat from the key's
// first issue, so the first answer is normally memoized before the
// repeat arrives.
const reuseGap = 64

// request is one generated whatif request.
type request struct {
	Class int
	Path  string
	Key   string // cache identity: the memo key, source text or select inputs
	Body  []byte

	analyze *serve.AnalyzeRequest
	aspen   *serve.AspenRequest
	sel     *serve.SelectProtectionRequest
}

// loadAspenSources reads the bundled Aspen models in file-name order.
func loadAspenSources(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.aspen"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no Aspen sources under %s", dir)
	}
	return out, nil
}

// API cache names and protection names, with the geometry and rate each
// resolves to (the service's documented vocabulary).
var (
	bundledCaches = []string{"small", "large", "16kb", "128kb", "1mb", "8mb"}
	protections   = []string{"none", "secded", "chipkill"}
)

// gen holds the state of one sequence being generated.
type gen struct {
	rng     *rand.Rand
	sources []string
	seen    map[string]bool
	unused  []int // bundled sources not yet issued, in seeded order
	turn    [numClasses]int
}

// genRequests builds the seeded request sequence of n requests.
func genRequests(seed uint64, n int, sources []string) ([]request, error) {
	g := &gen{
		rng:     rand.New(rand.NewPCG(seed, 0x5eed_dfa1)),
		sources: sources,
		seen:    map[string]bool{},
	}
	g.unused = g.rng.Perm(len(sources))

	kinds := make([]int, 0, n)
	rest := n
	for cls := clsProgramHit; cls < numClasses; cls++ {
		k := n * mixPerMille[cls] / 1000
		for i := 0; i < k; i++ {
			kinds = append(kinds, cls)
		}
		rest -= k
	}
	for i := 0; i < rest; i++ {
		kinds = append(kinds, clsHit)
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// Nothing can repeat before reuseGap requests have been issued: move
	// the first reuseGap first issues (in shuffled order) to the front.
	var front, back []int
	for _, k := range kinds {
		if len(front) < reuseGap && k != clsHit && k != clsProgramHit {
			front = append(front, k)
		} else {
			back = append(back, k)
		}
	}
	if len(front) < reuseGap {
		return nil, fmt.Errorf("whatif: %d requests hold fewer than %d first issues", n, reuseGap)
	}
	kinds = append(front, back...)

	var (
		reqs       = make([]request, 0, n)
		analyzeAt  []int // positions of first-issued analyze keys, ascending
		aspenAt    []int
		eligibleOf = func(at []int, i int) int {
			return sort.SearchInts(at, i-reuseGap+1)
		}
	)
	for i := 0; i < n; i++ {
		// A repeat needs a key issued reuseGap requests earlier; early in
		// the sequence swap it with a later first issue of the same kind.
		switch kinds[i] {
		case clsHit:
			if eligibleOf(analyzeAt, i) == 0 && !swapLater(kinds, i, isAnalyzeMiss) {
				return nil, fmt.Errorf("whatif: no analyze miss left to seed repeats")
			}
		case clsProgramHit:
			if eligibleOf(aspenAt, i) == 0 && !swapLater(kinds, i, func(c int) bool { return c == clsMissAspen }) {
				return nil, fmt.Errorf("whatif: no Aspen miss left to seed repeats")
			}
		}
		var r request
		var err error
		switch cls := kinds[i]; cls {
		case clsHit:
			r = reqs[analyzeAt[g.rng.IntN(eligibleOf(analyzeAt, i))]]
		case clsProgramHit:
			r = reqs[aspenAt[g.rng.IntN(eligibleOf(aspenAt, i))]]
		case clsSelect:
			r, err = g.selectRequest()
		case clsMissAspen:
			r, err = g.aspenMiss()
			aspenAt = append(aspenAt, i)
		default:
			r, err = g.analyzeMiss(cls)
			analyzeAt = append(analyzeAt, i)
		}
		if err != nil {
			return nil, err
		}
		r.Class = kinds[i]
		reqs = append(reqs, r)
	}
	return reqs, nil
}

func isAnalyzeMiss(c int) bool {
	return c == clsMissCG || c == clsMissMG || c == clsMissLight || c == clsMissCGPMAC
}

// swapLater moves the first later kind satisfying ok to position i.
func swapLater(kinds []int, i int, ok func(int) bool) bool {
	for j := i + 1; j < len(kinds); j++ {
		if ok(kinds[j]) {
			kinds[i], kinds[j] = kinds[j], kinds[i]
			return true
		}
	}
	return false
}

func (g *gen) pick(xs []string) string { return xs[g.rng.IntN(len(xs))] }

// rotate takes a class's kernels in turn, so every seed gives each kernel
// the same share of the class and the class's cost varies less by seed.
func (g *gen) rotate(cls int, xs []string) string {
	g.turn[cls]++
	return xs[g.turn[cls]%len(xs)]
}

// logUniform draws from [lo, hi) uniformly in log space.
func (g *gen) logUniform(lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + g.rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// analyzeMiss draws an analyze request whose memo key is new.
func (g *gen) analyzeMiss(cls int) (request, error) {
	for try := 0; try < 1000; try++ {
		req := serve.AnalyzeRequest{Engine: "analytic"}
		switch cls {
		case clsMissCG:
			req.Kernel = "CG"
		case clsMissMG:
			req.Kernel = "MG"
		case clsMissLight:
			req.Kernel = g.rotate(cls, []string{"VM", "FT"})
		case clsMissCGPMAC:
			req.Engine = "cgpmac"
			req.Kernel = g.rotate(cls, []string{"VM", "NB", "FT", "MC"})
		}
		if g.rng.IntN(2) == 0 {
			req.Cache = serve.CacheSpec{Name: g.pick(bundledCaches)}
		} else {
			req.Cache = serve.CacheSpec{
				Associativity: 1 << g.rng.IntN(5),       // 1..16 ways
				Sets:          1 << (4 + g.rng.IntN(9)), // 16..4096 sets
				LineSize:      16 << g.rng.IntN(4),      // 16..128 B lines
			}
		}
		if g.rng.IntN(2) == 0 {
			req.Protection = g.pick(protections)
		} else {
			fit := float64(1 + g.rng.IntN(20000))
			req.FIT = &fit
		}
		in, err := resolveAnalyze(req)
		if err != nil {
			return request{}, err
		}
		if g.seen[in.key] {
			continue
		}
		g.seen[in.key] = true
		return newRequest("/v1/analyze", in.key, &req)
	}
	return request{}, fmt.Errorf("whatif: no fresh analyze key for class %s", classNames[cls])
}

// paramRE matches an integer parameter declaration of an Aspen model.
var paramRE = regexp.MustCompile(`(param\s+(\w+)\s*=\s*)(\d+)`)

// aspenMiss issues each bundled source once, then sources with one
// parameter moved to a seeded value within half and one and a half times
// its bundled value, which bounds the evaluation cost.
func (g *gen) aspenMiss() (request, error) {
	for try := 0; try < 1000; try++ {
		var text string
		if len(g.unused) > 0 {
			text = g.sources[g.unused[0]]
			g.unused = g.unused[1:]
		} else {
			src := g.sources[g.rng.IntN(len(g.sources))]
			params := paramRE.FindAllStringSubmatchIndex(src, -1)
			if len(params) == 0 {
				continue
			}
			p := params[g.rng.IntN(len(params))]
			v, err := strconv.Atoi(src[p[6]:p[7]])
			if err != nil || v < 2 {
				continue
			}
			lo, hi := (v+1)/2, v+v/2
			nv := lo + g.rng.IntN(hi-lo+1)
			if nv == v {
				continue
			}
			text = src[:p[6]] + strconv.Itoa(nv) + src[p[7]:]
		}
		key := "aspen|" + text
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		return newRequest("/v1/aspen", key, &serve.AspenRequest{Source: text})
	}
	return request{}, fmt.Errorf("whatif: no fresh Aspen source")
}

// selectRequest draws a select-protection question whose DVF target some
// Table VII mechanism reaches: the target is the unprotected DVF times a
// factor no smaller than 1e-5, above chipkill's residual share
// (0.02/5000 at 5% slowdown, about 4.2e-6).
func (g *gen) selectRequest() (request, error) {
	req := serve.SelectProtectionRequest{
		BaseHours: g.logUniform(1e-4, 10),
		SizeBytes: int64(g.logUniform(1<<10, 64<<20)),
		NHa:       g.logUniform(1e2, 1e8),
	}
	req.Target = dvf.ForStructure(dvf.FITNoECC, req.BaseHours, req.SizeBytes, req.NHa) * g.logUniform(1e-5, 2)
	key := fmt.Sprintf("select|%v|%d|%v|%v", req.BaseHours, req.SizeBytes, req.NHa, req.Target)
	return newRequest("/v1/select-protection", key, &req)
}

func newRequest(path, key string, v any) (request, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return request{}, err
	}
	r := request{Path: path, Key: key, Body: body}
	switch v := v.(type) {
	case *serve.AnalyzeRequest:
		r.analyze = v
	case *serve.AspenRequest:
		r.aspen = v
	case *serve.SelectProtectionRequest:
		r.sel = v
	}
	return r, nil
}
