package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the command's flag surface and its self-checks: the churn
// scenario served on the default (in-process) table must finish with a
// clean certified tier — StrategyNone over a certified mix may not abort —
// and no "BUG:" line from the conservation / from-scratch re-certification
// checks; a backend value the command does not accept, or a cluster with
// no addresses, is a usage error (exit 2) that names what it wants, and so
// is the deleted -workers flag.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		code       int
		wantStdout string // substring of the "certified tier:" line
		wantStderr string
	}{
		{name: "serve", args: []string{"-events", "48", "-seed", "7", "-run"}, wantStdout: "aborts=0 wounds=0"},
		{name: "backend actor", args: []string{"-backend", "actor"}, code: 2, wantStderr: "default|remote|cluster"},
		{name: "backend sharded", args: []string{"-backend", "sharded"}, code: 2, wantStderr: "default|remote|cluster"},
		{name: "cluster without addrs", args: []string{"-backend", "cluster"}, code: 2, wantStderr: "-addrs"},
		{name: "workers is gone", args: []string{"-workers", "2"}, code: 2, wantStderr: "flag provided but not defined: -workers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			if all := stdout.String() + stderr.String(); strings.Contains(all, "BUG:") {
				t.Fatalf("self-check failed:\n%s", all)
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.wantStderr)
			}
			if tc.wantStdout == "" {
				return
			}
			_, tier, ok := strings.Cut(stdout.String(), "certified tier:")
			if !ok {
				t.Fatalf("no \"certified tier:\" line in output:\n%s", stdout.String())
			}
			tier, _, _ = strings.Cut(tier, "\n")
			if !strings.Contains(tier, tc.wantStdout) {
				t.Errorf("certified tier line %q does not contain %q", tier, tc.wantStdout)
			}
		})
	}
}
