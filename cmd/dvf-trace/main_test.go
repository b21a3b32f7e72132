package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// recordVM records the VM kernel into a fresh temporary trace file and
// returns its path.
func recordVM(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vm.trace")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-record", "-kernel", "VM", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("record: exit %d; stderr:\n%s", code, stderr.String())
	}
	return path
}

// TestRecordReplayMatchesSimulator checks the capture-once, simulate-many
// path end to end: replaying a recorded VM trace on the small cache prints
// exactly the report of the same kernel fed straight into the simulator.
func TestRecordReplayMatchesSimulator(t *testing.T) {
	path := recordVM(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", path, "-cache", "small"}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay: exit %d; stderr:\n%s", code, stderr.String())
	}

	k, err := kernels.ByName("VM")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cache.NewSimulator(cache.Small)
	if err != nil {
		t.Fatal(err)
	}
	info, err := k.Run(trace.ConsumerFunc(func(r trace.Ref, owner int32) {
		sim.Access(r.Addr, r.Size, r.Write, cache.StructID(owner))
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range info.Structures {
		sim.Label(cache.StructID(s.ID), s.Name)
	}
	if want := sim.Report(); stdout.String() != want {
		t.Errorf("replay report differs from a direct simulator run:\ngot:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// TestTruncatedTraceIsRunError pins the malformed-file path: a trace cut
// short is reported as a malformed trace file with exit status 1, never a
// panic or a partial report.
func TestTruncatedTraceIsRunError(t *testing.T) {
	raw, err := os.ReadFile(recordVM(t))
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", cut}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "dvf-trace: trace: malformed trace file") {
		t.Errorf("stderr does not report a malformed trace file:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed replay wrote output:\n%s", stdout.String())
	}
}

// TestUsageErrors checks that every malformed command line, including the
// retired -format flag, exits with status 2 before any work starts.
func TestUsageErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "never.trace")
	for _, args := range [][]string{
		{"-record", "-kernel", "VM", "-format", "v1", "-out", out},
		{"-replay", out, "-cache", "bogus"},
		{"-engine", "bogus"},
		{"-record"},
		{"-replay", out, "stray"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2; stderr:\n%s", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: a rejected run wrote output:\n%s", args, stdout.String())
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected run created %s", out)
	}
}
