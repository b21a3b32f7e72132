package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"github.com/resilience-models/dvf/internal/kernels"
)

// childArgs is what the parent tells one benchmark process to do.
type childArgs struct {
	role       string // profile, replay, whatif or check
	workload   string // the run's workload (the check process covers its gaps)
	seed       uint64 // this process's own seed
	count      int    // timed passes (profile, replay) or requests (whatif)
	traced     bool
	modelCheck bool // replay: evaluate the models after the timed passes
	t0         time.Time
}

// probeRequests is the size of the check process's request sequence.
const probeRequests = 300

var aspenDir = filepath.Join("internal", "aspen", "testdata")

// runChild executes one benchmark process's share of a run.
func runChild(c *ctx, a childArgs) error {
	rng := rand.New(rand.NewPCG(a.seed, 0x0bad_5eed))
	switch a.role {
	case "profile":
		return runProfile(c, a, rng)
	case "replay":
		return runReplay(c, a, rng)
	case "whatif":
		return runWhatif(c, a)
	case "check":
		return runCheck(c, a, rng)
	}
	return fmt.Errorf("unknown role %q", a.role)
}

// fig5 returns the Figure 5 golden, or nil where goldens do not apply.
func fig5() (fig5Golden, error) {
	if !goldensApply() {
		return nil, nil
	}
	return loadFig5(fig5Path)
}

func fig4() (fig4Golden, error) {
	if !goldensApply() {
		return nil, nil
	}
	return loadFig4(fig4Path)
}

// timedPass runs one timed pass inside a "pass" span (whose self time is
// the harness's own share) and records its wall time.
func timedPass(c *ctx, pass func() error) error {
	sp := c.begin("pass")
	t := time.Now()
	err := pass()
	c.res.PassNs = append(c.res.PassNs, time.Since(t).Nanoseconds())
	sp.End()
	return err
}

func runProfile(c *ctx, a childArgs, rng *rand.Rand) error {
	g, err := fig5()
	if err != nil {
		return err
	}
	if err := profilePass(c.scratch(), shuffledKernels(rng, kernels.ProfilingSuite()), g); err != nil {
		return err
	}
	c.startTimed(a.t0)
	for i := 0; i < a.count; i++ {
		suite := shuffledKernels(rng, kernels.ProfilingSuite())
		if err := timedPass(c, func() error { return profilePass(c, suite, g) }); err != nil {
			return err
		}
	}
	return nil
}

func runReplay(c *ctx, a childArgs, rng *rand.Rand) error {
	g, err := fig4()
	if err != nil {
		return err
	}
	recs, err := recordSuite(c)
	if err != nil {
		return err
	}
	if _, err := replayPass(c.scratch(), recs, replayPairs(rng, len(recs)), g); err != nil {
		return err
	}
	c.startTimed(a.t0)
	var sim simulated
	for i := 0; i < a.count; i++ {
		pairs := replayPairs(rng, len(recs))
		if err := timedPass(c, func() error {
			sim, err = replayPass(c, recs, pairs, g)
			return err
		}); err != nil {
			return err
		}
	}
	if a.modelCheck {
		worst, err := modelCheck(c, recs, sim, g)
		if err != nil {
			return err
		}
		c.res.ModelErrPct = &worst
	}
	return nil
}

// warmupRequests is the size of the whatif warm-up sequence, run against
// a throwaway service so the measured service starts with empty caches.
const warmupRequests = 300

func runWhatif(c *ctx, a childArgs) error {
	sources, err := loadAspenSources(aspenDir)
	if err != nil {
		return err
	}
	reqs, err := genRequests(a.seed, a.count, sources)
	if err != nil {
		return err
	}
	warm, err := genRequests(^a.seed, warmupRequests, sources)
	if err != nil {
		return err
	}
	if err := whatifSession(c.scratch(), warm, nil, false); err != nil {
		return err
	}
	return whatifSession(c, reqs, func() { c.startTimed(a.t0) }, true)
}

// runCheck exercises, once and against its reference, every layer the
// run's workload leaves off its timed path, so every run checks every
// layer and a traced run has a span for every per-layer metric.
func runCheck(c *ctx, a childArgs, rng *rand.Rand) error {
	if a.workload != "replay" {
		g, err := fig4()
		if err != nil {
			return err
		}
		recs, err := recordSuite(c)
		if err != nil {
			return err
		}
		sim, err := replayPass(c, recs, replayPairs(rng, len(recs)), g)
		if err != nil {
			return err
		}
		worst, err := modelCheck(c, recs, sim, g)
		if err != nil {
			return err
		}
		c.res.ModelErrPct = &worst
	}
	if a.workload != "profile" {
		g, err := fig5()
		if err != nil {
			return err
		}
		var light []kernels.Kernel
		for _, k := range kernels.ProfilingSuite() {
			if k.Name() != "CG" && k.Name() != "MG" {
				light = append(light, k)
			}
		}
		if err := profilePass(c, shuffledKernels(rng, light), g); err != nil {
			return err
		}
	}
	if a.workload != "whatif" {
		sources, err := loadAspenSources(aspenDir)
		if err != nil {
			return err
		}
		reqs, err := genRequests(a.seed, probeRequests, sources)
		if err != nil {
			return err
		}
		if err := whatifSession(c, reqs, nil, true); err != nil {
			return err
		}
		// The probe is a check, not a timed sequence.
		c.res.PassNs, c.res.Requests = nil, nil
	}
	return nil
}
