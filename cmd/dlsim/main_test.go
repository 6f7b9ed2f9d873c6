package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command over built-in workloads, a workload file and
// bad names: a certified mix runs to completion with no deadlock handling,
// an uncertified one stalls without it (exit 1) and completes under
// wound-wait, and an unknown workload or strategy is a usage error (exit 2).
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // in stdout, or in stderr on a usage error
	}{
		{"ordered none", []string{"-workload", "ordered", "-strategy", "none"}, 0, "safe+deadlock-free (Thm 4): true"},
		{"crosslock none", []string{"-workload", "crosslock", "-strategy", "none"}, 1, "stalled=true"},
		{"crosslock woundwait", []string{"-workload", "crosslock", "-strategy", "woundwait"}, 0, "stalled=false"},
		{"ring file", []string{"-file", "../../testdata/ring.txn"}, 1, "3 templates; statically safe+deadlock-free (Thm 4): false"},
		{"unknown workload", []string{"-workload", "hub"}, 2, `unknown workload "hub"`},
		{"unknown strategy", []string{"-strategy", "abortall"}, 2, `unknown strategy "abortall"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append(tc.args, "-clients", "4", "-txns", "10"), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			out := stdout.String()
			if tc.code == 2 {
				out = stderr.String()
				if stdout.Len() != 0 {
					t.Errorf("usage error ran a simulation:\n%s", stdout.String())
				}
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output does not mention %q:\n%s", tc.want, out)
			}
		})
	}
}
