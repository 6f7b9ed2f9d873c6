// Command benchmark is the repository's benchmark: five named workloads
// driven through the public distlock.LockService the way its users drive
// it, end-to-end metrics with regression bounds, a traced run that prices
// every layer from outside by replaying the same operation stream through
// successively lower rungs of the stack, and a compare gate. See README.md.
//
//	go run ./benchmark                         every workload, both runs, result.json
//	go run ./benchmark -workload remote-sync   one workload
//	go run ./benchmark -compare a.json b.json  judge b against a
//
// The driver's contract (BENCHMARK.json) is
// `go run ./benchmark --workload W --seed N --seconds S --trace 0|1`: one
// workload, one run, and a last line of JSON with the metrics of that run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	scale
	seed    int64
	seconds float64 // measured time of one run
	quick   bool    // smoke scale: quickScale and quickSeconds
	outDir  string
}

// quickSeconds is the run length of -quick.
const quickSeconds = 0.4

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Checks    []string `json:"failed_checks,omitempty"`
	// EndToEnd holds the untraced run: median across windows (or passes)
	// with min and max; null where a percentile lacked samples.
	EndToEnd map[string]*stat `json:"end_to_end,omitempty"`
	// PerLayer holds the traced run's ladder; NaN (null in JSON) where a
	// layer saw no such operation on this workload.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// TraceStages is whatever Stats().Certified.TraceStages returned under
	// WithTraceSampling, verbatim: informative, never a named metric.
	TraceStages []any `json:"trace_stages,omitempty"`
}

func newResult(name string) *workloadResult {
	return &workloadResult{Name: name, EndToEnd: map[string]*stat{}, PerLayer: map[string]float64{}}
}

// check records a failed correctness check.
func (r *workloadResult) check(err error) {
	if err != nil {
		r.Checks = append(r.Checks, err.Error())
		logf("CHECK FAILED: %v", err)
	}
}

func (r *workloadResult) finish() {
	r.Correct = len(r.Checks) == 0 && r.Failed == 0
	r.EndToEnd["fail_ratio"] = one(ratio(float64(r.Failed), float64(r.Attempted)))
}

// MarshalJSON writes NaN per-layer values as null.
func (r *workloadResult) MarshalJSON() ([]byte, error) {
	type plain workloadResult
	p := struct {
		*plain
		PerLayer map[string]*float64 `json:"per_layer,omitempty"`
	}{plain: (*plain)(r), PerLayer: map[string]*float64{}}
	for k, v := range r.PerLayer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			p.PerLayer[k] = nil
		} else {
			p.PerLayer[k] = &v
		}
	}
	return json.Marshal(p)
}

// hostFacts describe where and how a result was measured.
type hostFacts struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"git_commit"`
	Seed          int64   `json:"seed"`
	RunSeconds    float64 `json:"run_seconds"`
	Windows       int     `json:"windows"`
	WindowSeconds float64 `json:"window_seconds"`
	Passes        int     `json:"churn_passes"`
	LatencyStride int     `json:"latency_stride"`
	TrafficPanel  int     `json:"traffic_panel"`
	ChurnPanel    int     `json:"churn_panel"`
	LayerPanel    int     `json:"layer_panel"`
	Quick         bool    `json:"quick"`
}

// report is result.json.
type report struct {
	Host      hostFacts         `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func fatalf(format string, args ...any) {
	logf("benchmark: "+format, args...)
	os.Exit(2)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload `name`, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
		trace   = flag.Int("trace", -1, "0: untraced end-to-end run; 1: traced per-layer run; default both")
		quick   = flag.Bool("quick", false, "smoke scale: 0.4 s runs (0.1 s windows), 2-member panels, 20-event traces")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace-<workload>.jsonl")
		compare = flag.Bool("compare", false, "compare two result.json files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result.json files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v (run from the repository root)", err)
	}
	cfg := config{scale: fullScale, seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
	if cfg.quick {
		cfg.scale = quickScale
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
		if cfg.quick {
			cfg.seconds = quickSeconds
		}
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := findWorkload(*name); ok {
		run = []workload{w}
	} else {
		fatalf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	// Servers are hosted in this process and share its cores with the
	// clients; the cap keeps results comparable across hosts with more.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	rep := &report{Host: host(cfg)}
	ok := true
	for _, w := range run {
		res, err := runWorkload(w, cfg, *trace)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printResult(os.Stdout, spec, res)
		rep.Workloads = append(rep.Workloads, res)
		ok = ok && res.Correct
	}
	if *trace < 0 {
		path := filepath.Join(cfg.outDir, "result.json")
		if err := writeJSON(path, rep); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", path)
	} else if len(run) == 1 {
		// The driver's contract: the last line is one JSON object.
		fmt.Println(driverLine(spec, rep.Workloads[0], *trace))
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs a workload's untraced run, its traced run, or both,
// into one result.
func runWorkload(w workload, cfg config, trace int) (*workloadResult, error) {
	res := newResult(w.name)
	if trace != 1 {
		var e2e *workloadResult
		var err error
		if w.churn {
			e2e, err = runChurn(w, cfg)
		} else {
			e2e, err = runTraffic(w, cfg)
		}
		if err != nil {
			return nil, err
		}
		res = e2e
	}
	if trace != 0 {
		if err := runLayers(w, cfg, res); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// runLayers is the traced run: the certification ladder and the traffic
// ladder over the workload's own inputs, and the trace file.
func runLayers(w workload, cfg config, res *workloadResult) error {
	tf := &traceFile{}
	var sets []*classSet
	if w.churn {
		traces, err := genTraces(w, cfg.seed, cfg.layerPanel, cfg.churnEvents)
		if err != nil {
			return err
		}
		lives, err := certLadder(w, traces, res, tf)
		if err != nil {
			return err
		}
		// The traffic ladder prices the runtime stack on what admission
		// let in: the first classes of each set a trace left certified.
		for _, live := range lives {
			if live != nil && len(live.Txns) > 0 {
				sets = append(sets, newClassSet(live.DDB, live.Txns[:min(len(live.Txns), maxLiveClasses)]))
			}
		}
		if len(sets) == 0 {
			return fmt.Errorf("no trace left a class admitted")
		}
	} else {
		all, err := genClassSets(w, cfg.seed, cfg.trafficPanel)
		if err != nil {
			return err
		}
		traces := make([]*churnTrace, len(all))
		for i, s := range all {
			traces[i] = registerTrace(s)
		}
		if _, err := certLadder(w, traces, res, tf); err != nil {
			return err
		}
		sets = all[:cfg.layerPanel]
	}
	if err := trafficLadder(w, sets, cfg, res, tf); err != nil {
		return err
	}
	return tf.write(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl"))
}

// maxLiveClasses caps the classes the traffic ladder takes from a churn
// trace's admitted set, matching the traffic workloads' class count.
const maxLiveClasses = 8

func host(cfg config) hostFacts {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, RunSeconds: cfg.seconds,
		Windows: windows, WindowSeconds: cfg.seconds / windows, Passes: passes,
		LatencyStride: latencyStride, TrafficPanel: cfg.trafficPanel, ChurnPanel: cfg.churnPanel,
		LayerPanel: cfg.layerPanel, Quick: cfg.quick,
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric the result holds by name, with its unit.
func printResult(out *os.File, spec *benchSpec, r *workloadResult) {
	fmt.Fprintf(out, "\n== %s  (correct=%v attempted=%d failed=%d)\n", r.Name, r.Correct, r.Attempted, r.Failed)
	if len(r.EndToEnd) > 1 {
		fmt.Fprintf(out, "  %-34s %14s %14s %14s  %s\n", "end-to-end metric", "median", "min", "max", "unit")
		for _, name := range sortedKeys(r.EndToEnd) {
			s := r.EndToEnd[name]
			if s == nil {
				fmt.Fprintf(out, "  %-34s %14s\n", name, "null")
				continue
			}
			fmt.Fprintf(out, "  %-34s %14.6g %14.6g %14.6g  %s\n", name, s.Median, s.Min, s.Max, spec.unit(name))
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintf(out, "  %-34s %14s  %s\n", "per-layer metric", "value", "unit")
		for _, name := range sortedKeys(r.PerLayer) {
			if v := r.PerLayer[name]; math.IsNaN(v) {
				fmt.Fprintf(out, "  %-34s %14s\n", name, "null")
			} else {
				fmt.Fprintf(out, "  %-34s %14.6g  %s\n", name, v, spec.unit(name))
			}
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", c)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
