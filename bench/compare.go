package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison and the tests read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// recordRun is one benchmark invocation kept in a record file.
type recordRun struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Notes    []string `json:"notes,omitempty"`
	Result   result   `json:"result"`
}

// recordFile is a set of runs written by -record.
type recordFile struct {
	Note     string      `json:"note"`
	Host     string      `json:"host"`
	BaseSeed int64       `json:"base_seed"`
	Seconds  int         `json:"seconds"`
	Runs     []recordRun `json:"runs"`
}

func readRecord(path string) (recordFile, error) {
	var rf recordFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// values collects one metric of one workload over a record's runs.
func (rf recordFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict compares a change (b) with its parent (a) for one metric: the
// change is "worse" when its median is worse by more than the bound;
// "unresolved" when either side's quartile spread exceeds the bound and
// the runs do not separate cleanly; "no worse" otherwise.
func verdict(a, b []float64, d boundDef) (delta, spread float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	delta = sign * share(mb-ma, math.Abs(ma))
	spread = math.Max(relSpread(a), relSpread(b))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > d.Bound && !allBetter:
		v = "unresolved"
	case delta > d.Bound:
		v = "worse"
	default:
		v = "no worse"
	}
	return delta, spread, v
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return share(q3-q1, math.Abs(q2))
}

// compareRecords prints one row per workload and end-to-end metric.
func compareRecords(w io.Writer, spec benchSpec, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s\nb = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-21s %5s %11s %11s %11s %11s %11s %11s %8s %8s %7s %s\n",
		"workload", "metric", "n", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3",
		"spread", "delta", "bound", "verdict")
	names := map[string]bool{}
	for _, r := range append(append([]recordRun{}, a.Runs...), b.Runs...) {
		names[r.Workload] = true
	}
	var workloads []string
	for _, wl := range spec.Workloads {
		if names[wl.Name] {
			workloads = append(workloads, wl.Name)
		}
	}
	for _, wl := range workloads {
		for _, d := range spec.EndToEnd {
			va, vb := a.values(wl, d.Name), b.values(wl, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-21s missing\n", wl, d.Name)
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			delta, spread, v := verdict(va, vb, d)
			fmt.Fprintf(w, "%-16s %-21s %2d/%-2d %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %7.1f%% %+7.1f%% %6.1f%% %s\n",
				wl, d.Name, len(va), len(vb), a1, a2, a3, b1, b2, b3, 100*spread, 100*delta, 100*d.Bound, v)
		}
	}
	return nil
}
