package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is what the program reads of BENCHMARK.json: the single list of
// metric names and units. The program emits exactly these names; a test
// holds the two together. (Directions and bounds are the driver's.)
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) find(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

func (s *benchSpec) unit(name string) string {
	if name == "fail_ratio" {
		return "ratio" // reported here; BENCHMARK.json carries it as failed/attempted
	}
	m, _ := s.find(name)
	return m.Unit
}

// driverLine renders a result as the driver's last-line JSON: every
// end_to_end metric of the spec for an untraced run, every per_layer metric
// for a traced one. The contract wants a number for each, so a value that
// could not be measured on this workload is written as 0.
func driverLine(spec *benchSpec, r *workloadResult, trace int) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == 0 {
		for _, m := range spec.EndToEnd {
			v := 0.0
			if s := r.EndToEnd[m.Name]; s != nil {
				v = s.Median
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		for _, m := range spec.PerLayer {
			v := r.PerLayer[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}
