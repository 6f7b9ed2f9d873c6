package main

import (
	"strings"
	"testing"
)

// TestBanking runs the example end to end: the disciplined mix is
// certified and runs clean with no deadlock handling, the undisciplined
// one fails Theorem 3, survives only under wound-wait, and stalls without
// it.
func TestBanking(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("run = %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"mix disciplined    certified safe+deadlock-free (Theorem 4): true\n",
		"  ran under certified-none committed=400 aborts=0 ",
		"mix undisciplined  certified safe+deadlock-free (Theorem 4): false\n",
		"  violation: pair (0,1) fails Theorem 3\n",
		"  ran under wound-wait     committed=400 ",
		"undisciplined mix with NO deadlock handling: committed=0 of 400, stalled=true\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
