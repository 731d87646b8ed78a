package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json --compare applies.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is one workload x metric comparison.
type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	A        stat    `json:"a"`
	B        stat    `json:"b"`
	// Change is B's median over A's minus one, signed so positive is
	// better; Spread is the wider relative quartile distance of the two.
	Change  float64 `json:"change"`
	Spread  float64 `json:"spread"`
	Verdict string  `json:"verdict"`
}

// sampleSet is one side of a comparison: per workload and metric, its
// samples, and the host the first of its files was measured on.
type sampleSet struct {
	host    hostFacts
	samples map[string]map[string][]float64
}

// loadSet reads one side of a comparison: a file, or a comma-separated
// list or glob of files. One file contributes its repetition values; several
// contribute one value (the run's median) each.
func loadSet(arg string) (*sampleSet, error) {
	var files []string
	for _, pat := range strings.Split(arg, ",") {
		m, err := filepath.Glob(pat)
		if err != nil {
			return nil, err
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("no result file matches %q", pat)
		}
		files = append(files, m...)
	}
	set := &sampleSet{samples: map[string]map[string][]float64{}}
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if i == 0 {
			set.host = r.Host
		}
		for wn, wr := range r.Workloads {
			m := set.samples[wn]
			if m == nil {
				m = map[string][]float64{}
				set.samples[wn] = m
			}
			for mn, s := range wr.Metrics {
				if len(files) == 1 {
					m[mn] = s.Values
				} else {
					m[mn] = append(m[mn], s.Median)
				}
			}
		}
	}
	return set, nil
}

// judge applies the benchmark's rule: unresolved when either side's
// quartile spread exceeds the bound (unless every B sample beats every A
// sample, or the reverse); worse when B's median is worse by more than the
// bound; better when it is better by more than the bound and the spread.
func judge(a, b []float64, better string, bound float64) verdict {
	v := verdict{A: newStat("", a), B: newStat("", b), Bound: bound}
	rel := func(s stat) float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }
	v.Spread = math.Max(rel(v.A), rel(v.B))
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	v.Change = sign * (v.B.Median - v.A.Median) / math.Abs(v.A.Median)
	dominates := func(x, y []float64) bool { // every x better than every y
		for _, xv := range x {
			for _, yv := range y {
				if sign*(xv-yv) <= 0 {
					return false
				}
			}
		}
		return true
	}
	switch {
	case v.Spread > bound && dominates(b, a):
		v.Verdict = "better"
	case v.Spread > bound && dominates(a, b):
		v.Verdict = "worse"
	case v.Spread > bound:
		v.Verdict = "unresolved"
	case v.Change < -bound:
		v.Verdict = "worse"
	case v.Change > bound && v.Change > v.Spread:
		v.Verdict = "better"
	default:
		v.Verdict = "same"
	}
	return v
}

func runCompare(benchPath, argA, argB, out string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", benchPath, err)
		return 1
	}
	a, err := loadSet(argA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := loadSet(argB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return printCompare(bf, a, b, out, stdout, stderr)
}

func printCompare(bf benchmarkFile, a, b *sampleSet, out string, stdout, stderr io.Writer) int {
	var names []string
	for wn := range a.samples {
		if _, ok := b.samples[wn]; ok {
			names = append(names, wn)
		}
	}
	sort.Strings(names)
	var all []verdict
	worse := false
	for _, wn := range names {
		for _, m := range bf.EndToEnd {
			av, bv := a.samples[wn][m.Name], b.samples[wn][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.Better, m.Bound)
			v.Workload, v.Metric = wn, m.Name
			v.A.Unit, v.B.Unit = m.Unit, m.Unit
			all = append(all, v)
			worse = worse || v.Verdict == "worse"
			fmt.Fprintf(stdout, "%-9s %-15s A %12.6g [%.6g, %.6g]  B %12.6g [%.6g, %.6g] %-9s change %+6.1f%% spread %5.1f%% bound %4.1f%%  %s\n",
				wn, m.Name, v.A.Median, v.A.Q1, v.A.Q3, v.B.Median, v.B.Q1, v.B.Q3, m.Unit,
				100*v.Change, 100*v.Spread, 100*m.Bound, v.Verdict)
		}
	}
	if out != "" {
		doc := struct {
			HostA    hostFacts `json:"host_a"`
			HostB    hostFacts `json:"host_b"`
			Verdicts []verdict `json:"verdicts"`
		}{a.host, b.host, all}
		if err := writeJSON(out, doc); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if worse {
		return 1
	}
	return 0
}
