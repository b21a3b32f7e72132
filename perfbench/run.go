package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	flame    string
	out      string
}

// workProcesses is how many fresh workload processes one run times. The
// same operation differs by up to ±25% between processes on a small
// shared host, and the host has slow stretches, so a run reports the
// median over several processes. A replay process is short (one pass
// takes 0.3 s), so replay affords five, which makes its median hold
// while two processes sit in a slow stretch; a profile pass takes 6 s.
func workProcesses(workload string) int {
	if workload == "replay" {
		return 5
	}
	return 3
}

// Nominal costs on the two-CPU reference host, which turn --seconds into
// a fixed amount of work: passes for profile and replay, requests for
// whatif. They never end a run early.
const (
	profilePassS = 6.0
	replayPassS  = 0.29
	whatifRPS    = 500
	// minWhatifRequests keeps at least ten requests beyond each
	// process's p99.
	minWhatifRequests = 1000
)

// workCount is the fixed work of one workload process.
func workCount(workload string, seconds int) (int, error) {
	share := float64(seconds) / float64(workProcesses(workload))
	switch workload {
	case "profile":
		return max(1, int(math.Round(share/profilePassS))), nil
	case "replay":
		return max(1, int(math.Round(share/replayPassS))), nil
	case "whatif":
		return max(minWhatifRequests, int(math.Round(share*whatifRPS))), nil
	}
	return 0, fmt.Errorf("unknown workload %q (want profile, replay or whatif)", workload)
}

// subSeed derives process i's seed from the run's seed (splitmix64).
func subSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// process is one finished child.
type process struct {
	res    childResult
	rssMB  float64
	traced bool
}

// spawn runs one child to completion and decodes its result line.
func spawn(cfg runConfig, a childArgs, traceOut string) (*process, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--child", a.role, "--workload", cfg.workload,
		"--seed", strconv.FormatUint(a.seed, 10), "--count", strconv.Itoa(a.count),
		"--traced=" + strconv.FormatBool(a.traced), "--model-check=" + strconv.FormatBool(a.modelCheck),
		"--trace-out", traceOut,
		// The child's set-up time counts from here: exec and runtime
		// start-up are part of it.
		"--t0", strconv.FormatInt(time.Now().UnixNano(), 10),
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed mid-run. The
	// death signal follows the OS thread that started the child, so that
	// thread is held until the child has exited.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", a.role, err)
	}
	p := &process{traced: a.traced}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &p.res); err != nil {
		return nil, fmt.Errorf("%s process: decoding its result: %w", a.role, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("no rusage for the %s process on this platform", a.role)
	}
	p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return p, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark invocation and prints its report.
func run(cfg runConfig) error {
	n, err := workCount(cfg.workload, cfg.seconds)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%t", cfg.workload, cfg.seed, cfg.trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var work []*process
	if !cfg.trace {
		for i := 0; i < workProcesses(cfg.workload); i++ {
			p, err := spawn(cfg, childArgs{role: cfg.workload, seed: subSeed(cfg.seed, i), count: n, modelCheck: i == 0}, "")
			if err != nil {
				return err
			}
			work = append(work, p)
		}
	} else {
		// One untraced and one traced process with the same seed, so the
		// difference between them is the tracing overhead.
		for _, traced := range []bool{false, true} {
			out := ""
			if traced {
				out = filepath.Join(dir, cfg.workload+".trace.json")
			}
			p, err := spawn(cfg, childArgs{role: cfg.workload, seed: subSeed(cfg.seed, 0), count: n, traced: traced, modelCheck: traced}, out)
			if err != nil {
				return err
			}
			work = append(work, p)
		}
	}
	check, err := spawn(cfg, childArgs{role: "check", seed: subSeed(cfg.seed, workProcesses(cfg.workload)), traced: cfg.trace},
		filepath.Join(dir, "check.trace.json"))
	if err != nil {
		return err
	}
	rep := newReport(cfg, n, work, check)
	if cfg.trace {
		if err := rep.layerMetrics(cfg, work[0], work[1], check); err != nil {
			return err
		}
	} else {
		rep.endToEnd(work, check)
	}
	return rep.print(os.Stdout)
}
