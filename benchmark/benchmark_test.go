package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"distlock/internal/locktable"
)

// Same seed ⇒ byte-identical class sets, per-client op streams and churn
// traces; a different seed ⇒ different ones.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		render := func(seed int64) string {
			var b strings.Builder
			if w.churn {
				traces, err := genTraces(w, seed, 2, 20)
				if err != nil {
					t.Fatal(err)
				}
				for _, tr := range traces {
					b.WriteString(tr.describe())
				}
				return b.String()
			}
			sets, err := genClassSets(w, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sets {
				b.WriteString(s.describe(w.clients, 12))
			}
			return b.String()
		}
		a, again, other := render(7), render(7), render(8)
		if a != again {
			t.Errorf("%s: seed 7 generated two different inputs", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generated the same input", w.name)
		}
	}
}

func TestOpStreamGivesEveryClassOneOwner(t *testing.T) {
	for _, w := range workloads {
		if w.churn {
			continue
		}
		owner := map[int]int{}
		for c := 0; c < w.clients; c++ {
			for seq := 0; seq < 64; seq++ {
				cls := classOf(c, seq, w.clients, w.gen.NumTxns)
				if o, seen := owner[cls]; seen && o != c {
					t.Fatalf("%s: class %d run by clients %d and %d (certified at multiplicity 1)", w.name, cls, o, c)
				}
				owner[cls] = c
			}
		}
		if len(owner) != w.gen.NumTxns {
			t.Errorf("%s: %d of %d classes are ever run", w.name, len(owner), w.gen.NumTxns)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("summarize = %+v", s)
	}
	if got := s.spread(); got != 1.2 {
		t.Errorf("spread = %v, want 1.2", got)
	}
	if s := summarize([]float64{5, 1, 3}); s.Median != 3 {
		t.Errorf("odd median = %v", s.Median)
	}
	if summarize([]float64{1, math.NaN()}) != nil {
		t.Error("a window without the value must make the metric null")
	}
	if summarize(nil) != nil {
		t.Error("no windows must be null")
	}
}

func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[n-1-i] = int64(i + 1) // descending: percentile must sort
		}
		return s
	}
	if got := percentile(seq(100), 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	if got := percentile(seq(1000), 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v", got)
	}
	// p99 of 1000 samples has exactly 10 beyond it; of 999 only 9.
	if got := percentile(seq(999), 0.99); !math.IsNaN(got) {
		t.Errorf("p99 of 999 samples = %v, want null", got)
	}
	if got := percentile(seq(19), 0.50); !math.IsNaN(got) {
		t.Errorf("p50 of 19 samples = %v, want null (9 beyond)", got)
	}
	if got := percentile(seq(21), 0.50); got != 11 {
		t.Errorf("p50 of 21 samples = %v", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v", got)
	}
	if got := mean([]int64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	st := func(med, lo, hi float64) *stat { return &stat{Median: med, Min: lo, Max: hi, N: 4} }
	tight := func(v float64) *stat { return st(v, v*0.99, v*1.01) }
	gateOf := func(name string) gate {
		for _, g := range gates {
			if g.name == name {
				return g
			}
		}
		t.Fatalf("no gate %q", name)
		return gate{}
	}
	cases := []struct {
		metric string
		a, b   *stat
		want   verdict
	}{
		{"op_per_s", tight(1000), tight(1010), vOK},
		{"op_per_s", tight(1000), tight(1150), vImproved},
		{"op_per_s", tight(1000), tight(850), vRegressed},
		// 4 % down is inside the bound, but a's windows span 16 %: it
		// cannot be called unchanged.
		{"op_per_s", st(1000, 920, 1080), tight(960), vUnresolved},
		// 12 % down is outside the bound but inside a's own spread.
		{"op_per_s", st(1000, 920, 1080), tight(880), vUnresolved},
		// 30 % down is outside both.
		{"op_per_s", st(1000, 920, 1080), tight(700), vRegressed},
		{"op_p50_us", tight(100), tight(104), vOK},
		{"op_p50_us", tight(100), tight(115), vRegressed},
		{"op_p50_us", tight(100), tight(85), vImproved},
		{"op_p95_us", tight(100), nil, vAbsent},
		{"op_p95_us", nil, tight(100), vAbsent},
		// Exact counts: any fall regresses, any rise improves.
		{"admit_ratio", one(0.25), one(0.25), vOK},
		{"admit_ratio", one(0.25), one(0.2499), vRegressed},
		{"admit_ratio", one(0.25), one(0.26), vImproved},
		{"fail_ratio", one(0), one(0), vOK},
		{"fail_ratio", one(0), one(0.001), vRegressed},
		// Set-up has an absolute allowance of 0.05 s.
		{"setup_s", tight(0.001), tight(0.003), vOK},
		{"setup_s", tight(0.001), tight(0.08), vRegressed},
	}
	for _, c := range cases {
		if got, _ := gateOf(c.metric).judge(c.a, c.b); got != c.want {
			t.Errorf("%s a=%+v b=%+v: verdict %s, want %s", c.metric, c.a, c.b, got, c.want)
		}
	}

	// The report-level gate exits 1 exactly when something regressed.
	rep := func(perS float64) *report {
		return &report{Workloads: []*workloadResult{{Name: "w", EndToEnd: map[string]*stat{"op_per_s": tight(perS)}}}}
	}
	var out bytes.Buffer
	if code := compareReports(&out, rep(1000), rep(1001)); code != 0 {
		t.Errorf("unchanged reports exit %d\n%s", code, out.String())
	}
	if code := compareReports(&out, rep(1000), rep(800)); code != 1 {
		t.Errorf("regressed reports exit %d\n%s", code, out.String())
	}
}

// The -quick smoke: every workload, both runs, and every metric name of
// BENCHMARK.json emitted — and nothing emitted that BENCHMARK.json lacks.
func TestQuickSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	cfg := config{scale: quickScale, seed: 3, seconds: quickSeconds, quick: true, outDir: t.TempDir()}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		res, err := runWorkload(w, cfg, -1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: incorrect: failed=%d checks=%v", w.name, res.Failed, res.Checks)
		}
		for _, m := range spec.EndToEnd {
			if _, ok := res.EndToEnd[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", w.name, m.Name)
			}
		}
		for name := range res.EndToEnd {
			if _, ok := spec.find(name); !ok && name != "fail_ratio" {
				t.Errorf("%s: emits %s, which BENCHMARK.json does not declare", w.name, name)
			}
		}
		for _, m := range spec.PerLayer {
			if _, ok := res.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, m.Name)
			}
		}
		for name := range res.PerLayer {
			if _, ok := spec.find(name); !ok {
				t.Errorf("%s: emits %s, which BENCHMARK.json does not declare", w.name, name)
			}
		}
		// The driver's line carries a finite number for every name.
		for trace, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			var line struct {
				Correct   bool
				Attempted int64
				Metrics   map[string]struct{ Value *float64 }
			}
			if err := json.Unmarshal([]byte(driverLine(spec, res, trace)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", w.name, err)
			}
			if len(line.Metrics) != len(want) || line.Attempted < 1 {
				t.Errorf("%s trace %d: %d metrics, want %d; attempted %d", w.name, trace, len(line.Metrics), len(want), line.Attempted)
			}
			for _, m := range want {
				if v := line.Metrics[m.Name].Value; v == nil || math.IsNaN(*v) || math.IsInf(*v, 0) {
					t.Errorf("%s trace %d: %s is not a finite number", w.name, trace, m.Name)
				}
			}
		}
		// Each workload must demonstrably stress the layer it exists for.
		L := res.PerLayer
		if pipelined := w.depth > 0; (L["runtime.pipelined_op_ratio"] > 0.99) != pipelined {
			t.Errorf("%s: runtime.pipelined_op_ratio = %v", w.name, L["runtime.pipelined_op_ratio"])
		}
		if (L["cluster.fence_joins_per_txn"] > 0) != (w.servers > 1) {
			t.Errorf("%s: cluster.fence_joins_per_txn = %v", w.name, L["cluster.fence_joins_per_txn"])
		}
		if (L["locktable.fast_path_ratio"] > 0) != (w.name == "local-rw") {
			t.Errorf("%s: locktable.fast_path_ratio = %v", w.name, L["locktable.fast_path_ratio"])
		}
	}
}

// The wrapper's own holder record must flag a table that grants one
// entity to two writers, and must not flag legal reader crowds.
func TestTableProbeFlagsDoubleGrants(t *testing.T) {
	w := workloads[0]
	sets, err := genClassSets(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := newTableProbe(sets[0].ddb, 0)
	k := func(id int) locktable.InstKey { return locktable.InstKey{ID: id} }
	p.granted(0, k(1), locktable.Shared)
	p.granted(0, k(2), locktable.Shared)
	p.releasing(0, k(1))
	p.releasing(0, k(2))
	p.granted(0, k(3), locktable.Exclusive) // on a free entity
	p.releasing(0, k(9))                    // release of a lock never held: a no-op
	if v := p.violationCount(); v != 0 {
		t.Fatalf("legal schedule flagged %d violations", v)
	}
	p.granted(0, k(4), locktable.Exclusive) // second writer while the first still holds
	p.granted(0, k(5), locktable.Shared)    // reader under a writer
	if v := p.violationCount(); v != 2 {
		t.Fatalf("double grant flagged %d violations, want 2", v)
	}
}

// describe renders a class set and its per-client op streams as text; the
// determinism test compares these byte for byte.
func (s *classSet) describe(clients, txnsPerClient int) string {
	var b strings.Builder
	for _, t := range s.txns {
		fmt.Fprintln(&b, t.String())
	}
	for c := 0; c < clients; c++ {
		fmt.Fprintf(&b, "client %d:", c)
		for seq := 0; seq < txnsPerClient; seq++ {
			cls := classOf(c, seq, clients, len(s.txns))
			fmt.Fprintf(&b, " %s[", s.txns[cls].Name())
			for _, st := range s.progs[cls] {
				op := "U"
				if st.lock {
					op = "L" + st.mode.String()
				}
				fmt.Fprintf(&b, "%s:%s ", op, st.name)
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (t *churnTrace) describe() string {
	var b strings.Builder
	for _, ev := range t.events {
		if ev.Arrive {
			fmt.Fprintln(&b, "arrive", ev.Txn.String())
		} else {
			fmt.Fprintln(&b, "depart", ev.Txn.Name())
		}
	}
	return b.String()
}
