package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// gate is the regression rule of one end-to-end metric when two results of
// the SAME seed are compared: the inputs are identical, so only timing
// noise separates two runs of one commit and the bounds can be tight.
// (BENCHMARK.json's bounds serve the driver, which draws a new seed per run
// and so also sees input-sampling noise; they are wider.)
type gate struct {
	name         string
	higherBetter bool
	// bound is the share of a's median by which b may be worse; abs, when
	// set, is an absolute allowance in the metric's unit instead.
	bound, abs float64
}

var gates = []gate{
	// The min–max of four 2.5 s windows is 5–9 % on the remote workloads
	// on a 2-core host; a tighter bound would read "unresolved" between two
	// runs of one commit.
	{name: "op_per_s", higherBetter: true, bound: 0.10},
	{name: "op_p50_us", bound: 0.10},
	{name: "op_p95_us", bound: 0.15},
	// Exact counts for one seed: a faster certifier that admits less, or
	// any new failure, is a regression however small.
	{name: "admit_ratio", higherBetter: true},
	{name: "fail_ratio"},
	{name: "alloc_b_per_op", bound: 0.03},
	{name: "setup_s", abs: 0.05},
}

type verdict string

const (
	vOK         verdict = "ok"
	vImproved   verdict = "improved"
	vRegressed  verdict = "regressed"
	vUnresolved verdict = "unresolved"
	vAbsent     verdict = "n/a" // the metric is null on this workload on either side
)

// judge compares b against a under g. worse is how much worse b is, as a
// share of a's median (absolute when the gate is absolute or a is 0).
func (g gate) judge(a, b *stat) (v verdict, worse float64) {
	if a == nil || b == nil {
		return vAbsent, math.NaN()
	}
	delta := b.Median - a.Median
	if g.higherBetter {
		delta = -delta
	}
	allowed, noise := g.abs, max(a.Max-a.Min, b.Max-b.Min)
	worse = delta
	if g.abs == 0 && a.Median != 0 {
		worse = delta / math.Abs(a.Median)
		allowed, noise = g.bound, max(a.spread(), b.spread())
	}
	switch {
	case math.Abs(worse) > allowed && math.Abs(worse) <= noise:
		return vUnresolved, worse // the move is inside one side's own spread
	case worse > allowed:
		return vRegressed, worse
	case -worse > allowed:
		return vImproved, worse
	case noise > allowed:
		return vUnresolved, worse // cannot call it unchanged either
	}
	return vOK, worse
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload × end-to-end metric and returns
// the process exit code: 1 if any row regressed.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	if a.Host.Seed != b.Host.Seed || a.Host.RunSeconds != b.Host.RunSeconds || a.Host.Quick != b.Host.Quick {
		fmt.Fprintf(out, "WARNING: the runs differ in seed, length or scale (%d/%gs vs %d/%gs): inputs are not identical\n",
			a.Host.Seed, a.Host.RunSeconds, b.Host.Seed, b.Host.RunSeconds)
	}
	return compareReports(out, a, b)
}

func compareReports(out io.Writer, a, b *report) int {
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	counts := map[verdict]int{}
	fmt.Fprintf(out, "%-20s %-16s %14s %14s %9s %8s  %s\n", "workload", "metric", "a", "b", "worse %", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(out, "%-20s missing from b\n", wa.Name)
			continue
		}
		for _, g := range gates {
			sa, sb := wa.EndToEnd[g.name], wb.EndToEnd[g.name]
			v, worse := g.judge(sa, sb)
			counts[v]++
			if v == vAbsent {
				fmt.Fprintf(out, "%-20s %-16s %14s %14s %9s %8s  %s\n", wa.Name, g.name, "null", "null", "", "", v)
				continue
			}
			bound := fmt.Sprintf("%.0f%%", 100*g.bound)
			pct := fmt.Sprintf("%+.2f", 100*worse)
			if g.abs != 0 || sa.Median == 0 {
				bound, pct = fmt.Sprintf("%g", g.abs), fmt.Sprintf("%+.4g", worse)
			}
			fmt.Fprintf(out, "%-20s %-16s %14.6g %14.6g %9s %8s  %s\n", wa.Name, g.name, sa.Median, sb.Median, pct, bound, v)
		}
	}
	fmt.Fprintf(out, "ok %d, improved %d, regressed %d, unresolved %d, n/a %d\n",
		counts[vOK], counts[vImproved], counts[vRegressed], counts[vUnresolved], counts[vAbsent])
	if counts[vRegressed] > 0 {
		return 1
	}
	return 0
}
