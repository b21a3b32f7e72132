package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// The replay pass is the Figure 4 simulator side: every verification
// kernel's recorded reference stream replayed through a fresh sequential
// simulator on both verification caches in DefaultBatch views, plus the
// analytic solve of each affine kernel on the same cache.

// recording is one verification kernel's recorded stream.
type recording struct {
	k    kernels.Kernel
	info *kernels.RunInfo
	rec  *trace.BatchRecorder
	desc *analytic.Descriptor // nil for the non-affine kernels
}

// replayPair is one (kernel, cache) cell of a replay pass.
type replayPair struct {
	rec   int // index into the recordings
	cache cache.Config
}

// cacheLabel is the short name used in span and counter names.
func cacheLabel(cfg cache.Config) string {
	switch cfg.Name {
	case cache.Small.Name:
		return "Small"
	case cache.Large.Name:
		return "Large"
	}
	return cfg.Name
}

// recordSuite records every verification kernel once.
func recordSuite(c *ctx) ([]recording, error) {
	var recs []recording
	for _, k := range kernels.VerificationSuite() {
		br := &trace.BatchRecorder{}
		sp := c.begin("trace.record")
		info, err := k.Run(br)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("recording %s: %w", k.Name(), err)
		}
		c.add("trace.recorded_refs", float64(br.Len()))
		r := recording{k: k, info: info, rec: br}
		if d, ok := kernels.Affine(k); ok {
			r.desc = d
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// replayPairs returns the pass's cells in a seeded order.
func replayPairs(rng *rand.Rand, n int) []replayPair {
	var pairs []replayPair
	for i := 0; i < n; i++ {
		for _, cfg := range cache.VerificationConfigs() {
			pairs = append(pairs, replayPair{rec: i, cache: cfg})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// simulated holds per-structure simulated misses keyed by cellKey.
type simulated map[string]float64

// replayPass replays every pair, checks the simulated misses against
// fig4.csv and the analytic solves against analytic.Tolerance, and
// returns the simulated misses.
func replayPass(c *ctx, recs []recording, pairs []replayPair, g fig4Golden) (simulated, error) {
	out := simulated{}
	for _, p := range pairs {
		r := recs[p.rec]
		label := cacheLabel(p.cache)
		sim, err := cache.NewSimulator(p.cache)
		if err != nil {
			return nil, err
		}
		b := &r.rec.Batch
		n := b.Len()
		sp := c.begin("cache.replay." + label)
		for lo := 0; lo < n; lo += trace.DefaultBatch {
			v := b.Slice(lo, min(lo+trace.DefaultBatch, n))
			sim.AccessBatch(&v)
		}
		sp.End()
		c.add("cache.refs."+label, float64(n))
		c.add("cache.refs", float64(n))
		c.add("cache.misses", float64(sim.TotalStats().Misses))
		msg := ""
		for _, st := range r.info.Structures {
			misses := float64(sim.StructStats(cache.StructID(st.ID)).Misses)
			key := cellKey(r.k.Name(), p.cache.Name, st.Name)
			out[key] = misses
			if want, ok := g[key]; ok && msg == "" && !sameFloat(misses, want.Simulated) {
				msg = fmt.Sprintf("fig4 %s: simulated %v, golden %v", key, misses, want.Simulated)
			}
		}
		c.op(msg)
		if r.desc == nil {
			continue
		}
		sp = c.begin("analytic.solve")
		prof, err := analytic.Solve(r.desc, p.cache)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("solving %s on %s: %w", r.k.Name(), p.cache.Name, err)
		}
		c.add("analytic.solves", 1)
		c.op(checkAnalytic(r, p.cache, prof, out))
	}
	c.add("cache.rounds", 1)
	return out, nil
}

// checkAnalytic applies the analytic engine's documented contract:
// |analytic - simulated| <= tol * max(simulated, lines) per structure.
func checkAnalytic(r recording, cfg cache.Config, prof *analytic.Profile, sim simulated) string {
	tol := analytic.Tolerance(r.k.Name(), cfg)
	for _, st := range r.info.Structures {
		model, err := prof.Misses(st.Name)
		if err != nil {
			return err.Error()
		}
		simulated := sim[cellKey(r.k.Name(), cfg.Name, st.Name)]
		lines := float64((st.Bytes + int64(cfg.LineSize) - 1) / int64(cfg.LineSize))
		bound := tol * math.Max(simulated, lines)
		if math.Abs(model-simulated) > bound {
			return fmt.Sprintf("analytic %s/%s/%s: %v vs simulated %v exceeds tolerance %g",
				r.k.Name(), cfg.Name, st.Name, model, simulated, tol)
		}
	}
	return ""
}

// modelCheck evaluates the CGPMAC models once per Figure 4 cell, checks
// each estimate against fig4.csv and returns the largest absolute
// model-versus-simulated error in percent.
func modelCheck(c *ctx, recs []recording, sim simulated, g fig4Golden) (float64, error) {
	var worst float64
	for _, r := range recs {
		span := modelSpan(r.k.Name())
		for _, cfg := range cache.VerificationConfigs() {
			sp := c.begin(span)
			specs, err := r.k.Models(r.info)
			if err != nil {
				sp.End()
				return 0, fmt.Errorf("modeling %s: %w", r.k.Name(), err)
			}
			msg := ""
			for _, spec := range specs {
				model, err := spec.Estimator.MemoryAccesses(cfg)
				if err != nil {
					sp.End()
					return 0, fmt.Errorf("%s/%s on %s: %w", r.k.Name(), spec.Structure, cfg.Name, err)
				}
				c.add("patterns.estimator_calls", 1)
				key := cellKey(r.k.Name(), cfg.Name, spec.Structure)
				s, ok := sim[key]
				if !ok {
					sp.End()
					return 0, fmt.Errorf("fig4 %s: no simulated value", key)
				}
				worst = math.Max(worst, math.Abs(errorPct(model, s)))
				if want, ok := g[key]; g != nil && msg == "" && (!ok || !sameFloat(model, want.Model)) {
					msg = fmt.Sprintf("fig4 %s: model %v, golden %v", key, model, want.Model)
				}
			}
			sp.End()
			c.op(msg)
		}
	}
	c.add("patterns.rounds", 1)
	return worst, nil
}

// errorPct is the signed relative model error, as experiments.Fig4Row
// defines it.
func errorPct(model, simulated float64) float64 {
	if simulated == 0 {
		if model == 0 {
			return 0
		}
		return 100
	}
	return (model - simulated) / simulated * 100
}
