package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun pins the command's flag surface and its self-checks: the churn
// scenario served on the default (in-process) table, which the serving
// banner names "sharded", must finish with no abort on either tier — a
// certified mix needs no deadlock handling, and a two-phase fallback
// session never waits while it holds — and no "BUG:" line from the
// conservation / from-scratch re-certification checks; a backend value the command does not accept, or a cluster with
// no addresses, is a usage error (exit 2) that names what it wants, and so
// are the deleted -workers and -shards flags.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		code       int
		wantStdout string // substring of both tier lines
		wantStderr string
		wantTable  string // substring of the serving banner
	}{
		{name: "serve", args: []string{"-events", "48", "-seed", "7", "-run"}, wantStdout: "aborts=0", wantTable: "on the sharded lock table"},
		{name: "backend actor", args: []string{"-backend", "actor"}, code: 2, wantStderr: "default|remote|cluster"},
		{name: "backend sharded", args: []string{"-backend", "sharded"}, code: 2, wantStderr: "default|remote|cluster"},
		{name: "cluster without addrs", args: []string{"-backend", "cluster"}, code: 2, wantStderr: "-addrs"},
		{name: "workers is gone", args: []string{"-workers", "2"}, code: 2, wantStderr: "flag provided but not defined: -workers"},
		{name: "shards is gone", args: []string{"-shards", "4"}, code: 2, wantStderr: "flag provided but not defined: -shards"},
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
			if !strings.Contains(stdout.String(), tc.wantTable) {
				t.Errorf("stdout does not mention %q:\n%s", tc.wantTable, stdout.String())
			}
			if tc.wantStdout == "" {
				return
			}
			for _, name := range []string{"certified tier:", "fallback  tier:"} {
				_, tier, ok := strings.Cut(stdout.String(), name)
				if !ok {
					t.Fatalf("no %q line in output:\n%s", name, stdout.String())
				}
				tier, _, _ = strings.Cut(tier, "\n")
				if !strings.Contains(tier, tc.wantStdout) {
					t.Errorf("%s line %q does not contain %q", name, tier, tc.wantStdout)
				}
			}
		})
	}
}
