// Command benchmark is the repository's yardstick: six workloads, six
// end-to-end metrics and a ledger of single-layer numbers, all measured from
// outside the program (see README.md).
//
//	bash benchmark/run.sh                         every workload, untraced then traced
//	bash benchmark/run.sh --workload relay-single --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -agree 5                two sets of five runs, compared against the bounds
//
// A single-workload run prints every metric by name and unit and, as its
// last line, one JSON object; it exits non-zero when an output check fails.
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
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 42, "workload seed: wire payload order, tracker seeds, scenario cell order")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and the probe suite")
		agree    = flag.Int("agree", 0, "run two sets of N untraced runs per workload and compare them against the bounds")
		root     = flag.String("root", "", "repository root (default: the directory holding BENCH_scenarios.json, here or one up)")
	)
	flag.Parse()
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *traced != 0, root: findRoot(*root)}

	switch {
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			fatalf("unknown workload %q", *workload)
		}
		res, err := runOne(w, cfg)
		if err != nil {
			fatalf("%s: %v", w.Name, err)
		}
		res.print(os.Stdout)
		if !res.Correct {
			os.Exit(1)
		}
	case *agree > 0:
		if !runAgree(cfg, *agree) {
			os.Exit(1)
		}
	default:
		ok := true
		for _, pass := range []int{0, 1} {
			for _, w := range workloads {
				res, err := runChild(w.Name, cfg, pass, os.Stdout)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				}
				ok = ok && err == nil && res.Correct
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// findRoot locates the repository: the benchmark may be started from the
// repository root (run.sh) or from its own directory (go run .).
func findRoot(flagged string) string {
	if flagged != "" {
		return flagged
	}
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCH_scenarios.json")); err == nil {
			return dir
		}
	}
	fatalf("BENCH_scenarios.json not found here or one directory up; pass -root")
	return ""
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`

	workload string
	declared []metricDef // what this run had to report, in printing order
	problems []string
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a workload in this process and folds its report into a
// result: every declared metric must be there, finite, exactly once.
func runOne(w *workloadDef, cfg runCfg) (*result, error) {
	runtime.GOMAXPROCS(w.procs)
	rep := newReport()
	if err := w.run(cfg, rep); err != nil {
		return nil, err
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
		if err := runProbes(cfg, rep); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if !cfg.toy {
			if err := writeSpans(cfg.root, w.Name, rep.spans.all()); err != nil {
				return nil, err
			}
		}
	}
	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricVal{}, workload: w.Name, declared: declared}
	for _, m := range declared {
		v, ok := rep.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.failf("metric %s missing or not finite (%v)", m.Name, v)
			v = 0
		}
		res.Metrics[m.Name] = metricVal{v, m.Unit}
	}
	if len(rep.values) != len(declared) {
		rep.failf("%d metrics reported, %d declared", len(rep.values), len(declared))
	}
	res.problems = rep.problems
	res.Correct = len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0
	return res, nil
}

func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "workload %s: %d operations checked, %d failed\n", r.workload, r.Attempted, r.Failed)
	for _, m := range r.declared {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runChild runs one workload in a fresh process of this binary, so every
// run starts with a cold heap and its own GOMAXPROCS, and parses the JSON
// line it ends with. The child's report is copied to echo when non-nil.
func runChild(name string, cfg runCfg, traced int, echo *os.File) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(traced), "-root", cfg.root)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if echo != nil {
		echo.Write(out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &result{workload: name}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
