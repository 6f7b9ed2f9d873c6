package main

import (
	"strings"
	"testing"
)

// TestSATReduction runs the example end to end: deadlock-prefix existence
// agrees with DPLL on the satisfiable and the unsatisfiable formula, and
// the satisfying assignment decodes back from the witness cycle.
func TestSATReduction(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run = %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"deadlock prefix exists: true  |  DPLL says satisfiable: true  |  agree: true\n",
		"decoded back from the cycle: [true true] (satisfies: true)\n",
		"deadlock prefix exists: false  |  DPLL says satisfiable: false  |  agree: true\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
