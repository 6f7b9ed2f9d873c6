package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end: the certified classes are
// admitted, the cross-ordered one falls back, the hand-driven certified
// session commits, and the certified waiter blocked behind a certified
// holder returns when its context expires.
func TestQuickstart(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run = %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"T1: certified — runs with NO deadlock handling\n",
		"T2: certified — runs with NO deadlock handling\n",
		"T3: fallback (two-phase) — ",
		"R: certified — runs with NO deadlock handling\n",
		"T1 session committed\n",
		"T2 blocked on x, cancelled: context deadline exceeded\n",
		"stats: {",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
