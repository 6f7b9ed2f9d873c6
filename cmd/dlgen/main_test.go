package main

import (
	"bytes"
	"strings"
	"testing"

	"distlock/internal/core"
	"distlock/internal/parse"
)

// TestUsageErrors: a policy the command does not know, or fewer entities
// than sites, is a usage error (exit 2) that says what is wrong.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name, wantStderr string
		args             []string
	}{
		{"unknown policy", "unknown policy", []string{"-policy", "churn"}},
		{"entities below sites", "one entity per site", []string{"-sites", "4", "-entities", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2\nstderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote a system:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.wantStderr)
			}
		})
	}
}

// TestOrderedRoundTrips: the generated text parses back into a system with
// the requested transaction count, and an ordered-policy system is one
// Theorem 4 certifies.
func TestOrderedRoundTrips(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-policy", "ordered", "-seed", "7", "-txns", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr.String())
	}
	sys, err := parse.System(&stdout)
	if err != nil {
		t.Fatalf("output does not parse: %v", err)
	}
	if sys.N() != 5 {
		t.Fatalf("parsed %d transactions, want 5", sys.N())
	}
	if ok, v := core.SystemSafeDF(sys); !ok {
		t.Fatalf("ordered system not certified: %v", v)
	}
}
