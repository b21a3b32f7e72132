package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"github.com/resilience-models/dvf/internal/aspen"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/core"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/serve"
)

// Every whatif response is compared with the direct core or aspen call
// for the same inputs, computed after the timed sequence.

// analyzeInputs is an analyze request resolved the way the service's
// API documents it.
type analyzeInputs struct {
	kernel string
	cfg    cache.Config
	rate   dvf.FIT
	engine string
	key    string // the service's memo identity
}

var (
	namedCaches = map[string]cache.Config{
		"small": cache.Small, "large": cache.Large,
		"16kb": cache.Profile16KB, "128kb": cache.Profile128KB,
		"1mb": cache.Profile1MB, "8mb": cache.Profile8MB,
	}
	protectionRates = map[string]dvf.FIT{
		"none": dvf.FITNoECC, "secded": dvf.FITSECDED, "chipkill": dvf.FITChipkill,
	}
)

func resolveAnalyze(req serve.AnalyzeRequest) (analyzeInputs, error) {
	in := analyzeInputs{kernel: strings.ToUpper(req.Kernel), engine: req.Engine}
	if spec := req.Cache; spec.Name != "" {
		cfg, ok := namedCaches[spec.Name]
		if !ok {
			return in, fmt.Errorf("whatif: unknown cache %q", spec.Name)
		}
		in.cfg = cfg
	} else {
		in.cfg = cache.Config{
			Name:          fmt.Sprintf("custom-%dx%dx%d", spec.Associativity, spec.Sets, spec.LineSize),
			Associativity: spec.Associativity, Sets: spec.Sets, LineSize: spec.LineSize,
		}
	}
	if req.FIT != nil {
		in.rate = dvf.FIT(*req.FIT)
	} else {
		rate, ok := protectionRates[req.Protection]
		if !ok {
			return in, fmt.Errorf("whatif: unknown protection %q", req.Protection)
		}
		in.rate = rate
	}
	in.key = "analyze|" + in.kernel + "|" + in.cfg.Name + "|" +
		strconv.FormatFloat(float64(in.rate), 'g', -1, 64) + "|" + in.engine
	return in, nil
}

// expectAnalyze is the direct core call behind an analyze request.
func expectAnalyze(req serve.AnalyzeRequest) (any, error) {
	in, err := resolveAnalyze(req)
	if err != nil {
		return nil, err
	}
	k, err := core.NewKernel(in.kernel)
	if err != nil {
		return nil, err
	}
	var rep *core.Report
	if in.engine == "analytic" {
		rep, err = core.AnalyzeKernelAnalytic(k, in.cfg, in.rate)
	} else {
		rep, err = core.AnalyzeKernel(k, in.cfg, in.rate)
	}
	if err != nil {
		return nil, err
	}
	resp := &serve.AnalyzeResponse{
		Kernel: rep.Kernel, Cache: in.cfg.Name, Engine: in.engine, FIT: float64(rep.Rate),
		ExecHours: rep.ExecHours, TotalDVF: rep.Total(),
		Structures: make([]serve.StructureDVF, 0, len(rep.Structures)),
	}
	for _, st := range rep.Structures {
		resp.Structures = append(resp.Structures, serve.StructureDVF{
			Name: st.Name, Bytes: st.Bytes, NHa: st.NHa, NError: st.NError, DVF: st.DVF,
		})
	}
	return resp, nil
}

// expectAspen parses, checks and evaluates a source directly, timing the
// aspen layer.
func expectAspen(c *ctx, w int, src string) (any, error) {
	sp := c.workerSpan(w, "aspen.parse")
	m, err := aspen.Parse(src)
	if err == nil {
		err = aspen.Check(m)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = c.workerSpan(w, "aspen.eval")
	ev, err := aspen.Evaluate(m)
	sp.End()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(src))
	resp := &serve.AspenResponse{
		Model: ev.Model, Hash: hex.EncodeToString(sum[:]), Cache: ev.Cache.Name,
		FIT: float64(ev.Rate), ExecSeconds: ev.ExecSeconds, TotalDVF: ev.Total(),
	}
	for _, st := range ev.Structures {
		resp.Structures = append(resp.Structures, serve.StructureDVF{
			Name: st.Name, Bytes: st.Bytes, NHa: st.NHa, NError: st.NError, DVF: st.DVF,
		})
	}
	return resp, nil
}

// expectSelect is the direct core call behind a select-protection request.
func expectSelect(req serve.SelectProtectionRequest) (any, error) {
	mech, point, err := core.SelectProtection(req.BaseHours, req.SizeBytes, req.NHa, req.Target)
	if err != nil {
		return nil, err
	}
	return &serve.SelectProtectionResponse{
		Mechanism: mech.Name, DegradationPct: point.DegradationPct,
		EffectiveFIT: float64(point.EffectiveFIT), ExecHours: point.ExecHours, DVF: point.DVF,
	}, nil
}

// expectation is the reference answer for one distinct request key.
type expectation struct {
	want any
	err  error
}

// checkWorkers is how many goroutines compute the reference answers;
// the check runs outside the timed region, so it may use every CPU.
const checkWorkers = 2

// expectAll computes the reference answer of every distinct key.
func expectAll(c *ctx, reqs []request) map[string]*expectation {
	out := map[string]*expectation{}
	var keys []request
	for _, r := range reqs {
		if _, ok := out[r.Key]; !ok {
			out[r.Key] = &expectation{}
			keys = append(keys, r)
		}
	}
	c.ensureWorkers(checkWorkers)
	jobs := make(chan request)
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				e := out[r.Key] // read-only map access; each entry has one writer
				switch {
				case r.analyze != nil:
					sp := c.workerSpan(w, "check.core")
					e.want, e.err = expectAnalyze(*r.analyze)
					sp.End()
				case r.aspen != nil:
					e.want, e.err = expectAspen(c, w, r.aspen.Source)
				default:
					sp := c.workerSpan(w, "check.core")
					e.want, e.err = expectSelect(*r.sel)
					sp.End()
				}
			}
		}()
	}
	for _, r := range keys {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
	return out
}

// compareResponse decodes one response body and compares it with the
// reference, ignoring only the cache-outcome flags (memoized, compiled),
// which the caller counts separately.
func compareResponse(r request, body []byte, e *expectation) string {
	if e.err != nil {
		return fmt.Sprintf("%s %s: reference call failed: %v", r.Path, r.Body, e.err)
	}
	got := reflect.New(reflect.TypeOf(e.want).Elem()).Interface()
	if err := json.Unmarshal(body, got); err != nil {
		return fmt.Sprintf("%s %s: decoding response: %v", r.Path, r.Body, err)
	}
	switch v := got.(type) {
	case *serve.AnalyzeResponse:
		v.Memoized = false
	case *serve.AspenResponse:
		v.Compiled = false
	}
	if !reflect.DeepEqual(got, e.want) {
		return fmt.Sprintf("%s %s: response differs from the direct call", r.Path, r.Body)
	}
	return ""
}
