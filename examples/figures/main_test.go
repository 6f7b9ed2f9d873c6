package main

import (
	"strings"
	"testing"
)

// TestFigures runs the example end to end: every figure's claim verifies.
func TestFigures(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run = %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"  -> Fig1 claim verified\n",
		"  Tirri's test says deadlock-free: true\n",
		"  -> Fig2 claim verified\n",
		"  -> Fig3 claim verified\n",
		"  -> Figs4-5 claim verified\n",
		"  -> Fig6 claim verified\n",
		"all figure claims verified ✓\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
