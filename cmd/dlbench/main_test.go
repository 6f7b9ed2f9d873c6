package main

import (
	"fmt"
	"testing"
)

// TestJSONReportRunsEveryExperiment runs every experiment the way -json
// does and checks the report: one record per experiment, E1 to E11 in
// order, each with a nonnegative wall time. A failing experiment exits
// the test binary (check) or panics, which fails the test.
func TestJSONReportRunsEveryExperiment(t *testing.T) {
	report, ran := runExperiments("", true)
	if !ran {
		t.Fatal("no experiment ran")
	}
	if got, want := len(report.Experiments), 11; got != want {
		t.Fatalf("report has %d records, want %d", got, want)
	}
	for i, r := range report.Experiments {
		if want := fmt.Sprintf("E%d", i+1); r.ID != want {
			t.Fatalf("record %d is %s, want %s", i, r.ID, want)
		}
		if r.ElapsedMS < 0 {
			t.Fatalf("%s: elapsed %v ms", r.ID, r.ElapsedMS)
		}
	}
}

// TestUnknownExperimentRunsNothing: -run with a name no experiment has
// runs nothing, which main reports as exit status 2.
func TestUnknownExperimentRunsNothing(t *testing.T) {
	if report, ran := runExperiments("E12", true); ran || len(report.Experiments) != 0 {
		t.Fatalf("-run E12 ran %d experiments", len(report.Experiments))
	}
}
