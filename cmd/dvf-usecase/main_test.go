package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/experiments"
)

// TestUnknownCaseIsUsageError pins the -case input check: an unknown use
// case is rejected with exit status 2 and a message naming it, before
// any figure work starts, instead of silently printing nothing.
func TestUnknownCaseIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-case", "foo"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown -case "foo"`) {
		t.Errorf("stderr does not name the case:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected run wrote output:\n%s", stdout.String())
	}
}

// TestECCCaseCSV checks that -case ecc -csv prints exactly the Figure 7
// CSV the experiments package writes, and nothing of Figure 6.
func TestECCCaseCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-case", "ecc", "-csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
	}
	res, err := experiments.RunFig7(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("-case ecc -csv output differs from the Figure 7 CSV:\ngot:\n%s\nwant:\n%s", stdout.String(), want.String())
	}
}
