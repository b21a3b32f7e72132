package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeWorkersIsUsageError pins the -workers input check: a
// negative cell bound is rejected with exit status 2 and a message naming
// the flag, before any figure work starts.
func TestNegativeWorkersIsUsageError(t *testing.T) {
	for _, arg := range []string{"-workers=-1", "-workers=-8"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{arg}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", arg, code)
		}
		if !strings.Contains(stderr.String(), "-workers must be >= 0") {
			t.Errorf("%s: stderr does not explain the usage error:\n%s", arg, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: a rejected run wrote output:\n%s", arg, stdout.String())
		}
	}
}

func TestUnknownEngineFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-engine", "bogus"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown -engine "bogus"`) {
		t.Errorf("stderr does not name the engine:\n%s", stderr.String())
	}
}
