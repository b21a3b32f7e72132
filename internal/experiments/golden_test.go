package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
)

// One guard test per figure. Each renders the uninstrumented,
// strictly sequential CSV (Options{Workers: 1}, no goroutines at all)
// once and compares four arms against it, each in its own subtest:
//
//   - golden:   the checked-in CSV under testdata/, byte for byte;
//   - workers0: the default fan-out (Options{}), proving the concurrency
//     schedule does not leak into the output;
//   - sink:     a live metrics registry threaded through every hot path,
//     which must change nothing and must record something;
//   - tracer:   a live timeline recorder, likewise, whose trace must be
//     non-trivial and schema-valid.
//
// Regenerate the goldens with:
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// The goldens encode exact float formatting, so they are tied to this
// repository's reference platform (amd64); on an architecture whose
// compiler fuses multiply-adds differently, regenerate rather than chase
// last-ulp differences.
var update = flag.Bool("update", false, "rewrite the golden CSV files under testdata/")

// csvWriter is the common shape of every figure result.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden CSVs are pinned to the amd64 reference platform; GOARCH=%s fuses multiply-adds differently", runtime.GOARCH)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output is not byte-identical to the golden file (len %d vs %d)",
			name, len(got), len(want))
	}
}

// guardFigure runs the four arms described above for one figure driver.
// With skipScheduleArmsUnderRace the golden and workers0 arms skip under
// -race: their byte-identity does not depend on the schedule, and the
// race runs cover the fan-outs elsewhere. wantSpans names spans the
// tracer arm must find in the recorded timeline.
func guardFigure[R csvWriter](t *testing.T, golden string, skipScheduleArmsUnderRace bool, run func(Options) (R, error), wantSpans ...string) {
	t.Helper()
	render := func(t *testing.T, o Options) []byte {
		t.Helper()
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(t, Options{Workers: 1})
	same := func(t *testing.T, arm string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, seq) {
			t.Errorf("%s: CSV with %s differs from the uninstrumented Workers: 1 run", golden, arm)
		}
	}
	scheduleArm := func(t *testing.T) {
		if skipScheduleArmsUnderRace && raceEnabled {
			t.Skip("byte-identity does not depend on the schedule; race runs cover the fan-outs elsewhere")
		}
	}
	t.Run("golden", func(t *testing.T) {
		scheduleArm(t)
		goldenCompare(t, golden, seq)
	})
	t.Run("workers0", func(t *testing.T) {
		scheduleArm(t)
		same(t, "Workers: 0", render(t, Options{}))
	})
	t.Run("sink", func(t *testing.T) {
		ms := metrics.New()
		same(t, "a live Sink", render(t, Options{Workers: 1, Sink: ms}))
		requireLive(t, ms)
	})
	t.Run("tracer", func(t *testing.T) {
		tz := tracez.New()
		same(t, "a live Tracer", render(t, Options{Workers: 1, Tracer: tz}))
		requireValidTrace(t, tz, wantSpans...)
	})
}

func requireLive(t *testing.T, s metrics.Sink) {
	t.Helper()
	snap := s.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		t.Fatal("live sink recorded no instruments; the sweep is not instrumented")
	}
}

// requireValidTrace dumps the tracer and runs the package's own schema
// validator over the result: named events, balanced pairs, non-negative
// timestamps, known metadata kinds. The trace must hold at least one
// span, and a span of every name in wantSpans.
func requireValidTrace(t *testing.T, tz *tracez.Tracer, wantSpans ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := tz.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := tracez.ValidateReader(&buf)
	if err != nil {
		t.Fatalf("live trace is schema-invalid: %v", err)
	}
	spans := map[string]bool{}
	for _, ev := range events {
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
	}
	if len(spans) == 0 {
		t.Fatal("live tracer recorded no spans; the sweep is not instrumented")
	}
	for _, name := range wantSpans {
		if !spans[name] {
			t.Errorf("live trace has no %q span", name)
		}
	}
}

func TestGoldenFig4CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is schedule-agnostic; race runs cover the fan-outs and instruments elsewhere")
	}
	guardFigure(t, "fig4.csv", true, RunFig4)
}

func TestGoldenFig5CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is schedule-agnostic; race runs cover the fan-outs and instruments elsewhere")
	}
	guardFigure(t, "fig5.csv", true, RunFig5)
}

func TestGoldenFig6CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep is slow")
	}
	guardFigure(t, "fig6.csv", true, RunFig6)
}

func TestGoldenFig7CSV(t *testing.T) {
	guardFigure(t, "fig7.csv", false, RunFig7,
		"dvf.aggregate VM", "dvf.sweep SECDED", "dvf.sweep Chipkill correct")
}
