package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/kernels"
)

// The profile pass is the Figure 5 path, called layer by layer the way
// experiments.RunFig5 does: one untraced Run per kernel, then for each
// profiling cache Models -> MemoryAccesses -> ExecHours -> NewApplication.

// modelSpan names the patterns span of a kernel: CG and MG carry the
// cost of the pass, FT is the third template model, the rest are closed
// forms.
func modelSpan(kernel string) string {
	switch kernel {
	case "CG", "MG", "FT":
		return "patterns.model." + kernel
	}
	return "patterns.model.rest"
}

// shuffledKernels returns the suite in a seeded order, so a slow stretch
// of the host lands on a different kernel in every pass.
func shuffledKernels(rng *rand.Rand, suite []kernels.Kernel) []kernels.Kernel {
	rng.Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })
	return suite
}

// profileKernel runs one kernel untraced and profiles it on every
// Figure 5 cache, checking each cell against fig5.csv (when g is
// non-nil). A cell is one kernel on one cache: its per-structure DVFs
// and DVF_a.
func profileKernel(c *ctx, k kernels.Kernel, g fig5Golden) error {
	sp := c.begin("kernels.run")
	info, err := k.Run(nil)
	sp.End()
	if err != nil {
		return fmt.Errorf("running %s: %w", k.Name(), err)
	}
	c.add("kernels.refs", float64(info.Refs))
	span := modelSpan(k.Name())
	for _, cfg := range cache.ProfilingConfigs() {
		sp := c.begin(span)
		specs, err := k.Models(info)
		if err != nil {
			sp.End()
			return fmt.Errorf("modeling %s: %w", k.Name(), err)
		}
		var (
			names []string
			sizes []int64
			nhas  []float64
			total float64
		)
		for _, spec := range specs {
			st, err := info.Structure(spec.Structure)
			if err != nil {
				sp.End()
				return err
			}
			nha, err := spec.Estimator.MemoryAccesses(cfg)
			if err != nil {
				sp.End()
				return fmt.Errorf("%s/%s on %s: %w", k.Name(), spec.Structure, cfg.Name, err)
			}
			c.add("patterns.estimator_calls", 1)
			names = append(names, spec.Structure)
			sizes = append(sizes, st.Bytes)
			nhas = append(nhas, nha)
			total += nha
		}
		sp.End()
		sp = c.begin("dvf.aggregate")
		hours := dvf.DefaultCostModel.ExecHours(info.Refs, total, float64(info.Flops))
		app, err := dvf.NewApplication(k.Name(), dvf.FITNoECC, hours, names, sizes, nhas)
		sp.End()
		if err != nil {
			return err
		}
		c.add("dvf.aggregates", 1)
		c.op(checkFig5Cell(g, app, cfg.Name))
	}
	return nil
}

// checkFig5Cell compares one application report with its fig5.csv rows.
func checkFig5Cell(g fig5Golden, app *dvf.Application, cacheName string) string {
	if g == nil {
		return ""
	}
	for _, s := range app.Structures {
		if msg := g.check(app.Kernel, cacheName, s.Name, s.DVF); msg != "" {
			return msg
		}
	}
	return g.check(app.Kernel, cacheName, "DVF_a", app.Total())
}

// profilePass is one Figure 5 pass over the given kernels (24 cells for
// the full profiling suite).
func profilePass(c *ctx, suite []kernels.Kernel, g fig5Golden) error {
	for _, k := range suite {
		if err := profileKernel(c, k, g); err != nil {
			return err
		}
	}
	c.add("kernels.rounds", 1)
	c.add("patterns.rounds", 1)
	return nil
}
