package main

import (
	"fmt"
	"os"
	"sort"
)

// The acceptance tool: two sets of N untraced runs of every workload, each
// run in its own process and on its own seed (the same N seeds in both
// sets), compared the way the driver compares them.

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	at := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// worseBy is how much worse b is than a as a share of a, signed so that
// positive is worse whichever direction the metric prefers.
func worseBy(m metricDef, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAgree prints, for every workload and end-to-end metric, both medians,
// both inter-quartile ranges as a share of the median, and how much worse
// the second set's median is, against the metric's bound. It reports
// whether every pair stayed inside: each spread within the bound (setup_s
// excepted, as the driver excepts it) and no second median worse than the
// first by more than the bound.
func runAgree(cfg runCfg, n int) bool {
	if n < 2 {
		fatalf("-agree needs at least 2 runs per set to have quartiles")
	}
	ok := true
	fmt.Printf("%-16s %-16s %14s %7s %14s %7s %8s %6s\n", "workload", "metric", "median A", "IQR A", "median B", "IQR B", "B worse", "bound")
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				c := cfg
				c.seed = cfg.seed + int64(i)
				res, err := runChild(w.Name, c, 0, nil)
				if err != nil {
					fatalf("%s: %v", w.Name, err)
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: output check failed\n", w.Name, c.seed)
					ok = false
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			spreadA, spreadB, worse := (a3-a1)/a2, (b3-b1)/b2, worseBy(m, a2, b2)
			verdict := ""
			if worse > m.Bound || (m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound)) {
				verdict, ok = "  MISS", false
			}
			fmt.Printf("%-16s %-16s %14.6g %6.2f%% %14.6g %6.2f%% %+7.2f%% %5.0f%%%s\n",
				w.Name, m.Name, a2, 100*spreadA, b2, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
		// On the virtual clock the latency is a result, not a timing: the
		// same seed must give the same value to the last digit.
		if w.Name == "tracker-virtual" {
			for _, name := range []string{"latency_p50_us", "latency_p95_us"} {
				for i := range sets[0][name] {
					if sets[0][name][i] != sets[1][name][i] {
						fmt.Printf("%-16s %-16s seed %d gave %v then %v  MISS\n", w.Name, name, cfg.seed+int64(i), sets[0][name][i], sets[1][name][i])
						ok = false
					}
				}
			}
		}
	}
	return ok
}
