package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the repeatability report needs.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(vs, n=4) does (the default, exclusive method,
// extrapolation at the ends included), so this report and the gate agree.
// It needs two values or more.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	at := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// repeat runs n full end-to-end sets back to back, set i with seed+i, and
// reports each gated metric's spread per workload: the distance between the
// quartiles as a share of the median — what the gate computes over its own
// runs — and the largest deviation from the median. It fails if a spread
// exceeds the metric's BENCHMARK.json bound; this is how the bounds were
// chosen and how a change to the benchmark is checked.
func repeat(ws []workload, n int, seed int64, total time.Duration, start startFunc) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 sets to have a spread")
	}
	values := map[string][]float64{} // workload/metric → one value per set
	for i := 0; i < n; i++ {
		for _, w := range ws {
			res, err := runEndToEnd(w, seed+int64(i), total, start)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", i, w.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("set %d, %s: %d of %d requests failed or the server leaked: %v", i, w.name, res.Failed, res.Attempted, res.leakErrs)
			}
			for name, m := range res.Metrics {
				values[w.name+"/"+name] = append(values[w.name+"/"+name], m.Value)
			}
			fmt.Printf("set %d %s done\n", i, w.name)
		}
	}
	fmt.Printf("%-18s %-16s %14s %14s %14s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "maxdev", "bound")
	exceeded := 0
	for _, w := range ws {
		for _, m := range sp.EndToEnd {
			vs := values[w.name+"/"+m.Name]
			if len(vs) == 0 {
				return fmt.Errorf("BENCHMARK.json names %s, which %s does not report", m.Name, w.name)
			}
			q1, q2, q3 := quartiles(vs)
			maxDev := 0.0
			for _, v := range vs {
				if d := math.Abs(v-q2) / q2; d > maxDev {
					maxDev = d
				}
			}
			verdict := ""
			// setup_s is gated on its median only, as the gate does.
			if spread := (q3 - q1) / q2; spread > m.Bound && m.Name != "setup_s" {
				verdict = "EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-18s %-16s %14.3f %14.3f %14.3f %7.1f%% %7.1f%% %5.0f%% %s\n",
				w.name, m.Name, q1, q2, q3, (q3-q1)/q2*100, maxDev*100, m.Bound*100, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric × workload pairs spread wider than their bound over %d sets", exceeded, n)
	}
	return nil
}
