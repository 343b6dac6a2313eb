// Command aru benchmarks the estimator pipeline end to end: a fast
// producer paced purely by STP feedback against a bottleneck consumer,
// run once with raw summary propagation (the paper's behaviour) and once
// with the AIMD estimator, across steady, jittery, and stepped consumer
// load shapes. Everything runs on the discrete-event virtual clock with
// a seeded jitter source, so a cell is exactly reproducible on any
// number of processors and costs milliseconds of wall time per virtual
// minute.
//
// Per cell it reports the steady-state pacing interval (mean and
// standard deviation — the source-rate jitter), the drop ratio (items a
// Latest-semantics consumer skipped over), and the convergence time (when
// the paced interval first enters and stays inside the steady band).
//
// Usage:
//
//	go run ./cmd/aru                      # print the matrix
//	go run ./cmd/aru -json BENCH_aru.json
//	go run ./cmd/aru -check BENCH_aru.json
//
// Every run asserts the headline claim: under the jittery consumer the
// AIMD estimator holds at least 2x lower source-rate jitter than raw at
// a drop ratio no worse. -check also fails (exit 1) if the seed or the
// virtual seconds differ from the pinned report, or if any cell differs
// from its pin in any field.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/pin"
	"repro/internal/rand"
	rt "repro/internal/runtime"
	"repro/internal/vt"
)

// Result is one cell of the scenario × estimator matrix.
type Result struct {
	Scenario       string  `json:"scenario"`  // steady | jitter | step
	Estimator      string  `json:"estimator"` // raw | aimd
	Produced       int64   `json:"produced"`
	Consumed       int64   `json:"consumed"`
	DropRatio      float64 `json:"drop_ratio"`
	MeanIntervalMs float64 `json:"mean_interval_ms"`
	JitterMs       float64 `json:"jitter_ms"`
	ConvergenceS   float64 `json:"convergence_s"`
}

func (r Result) key() string { return r.Scenario + "/" + r.Estimator }

// Report is the pinned file format.
type Report struct {
	GoVersion string   `json:"go_version"`
	NumCPU    int      `json:"num_cpu"`
	Seconds   float64  `json:"virtual_seconds"`
	Seed      uint64   `json:"seed"`
	Results   []Result `json:"results"`
}

const (
	bottleneck = 50 * time.Millisecond // the consumer's mean period
	jitterAmp  = 30 * time.Millisecond // uniform ± amplitude in the jitter shape

	// The run parameters BENCH_aru.json is pinned at.
	defaultSeconds = 60
	defaultSeed    = 1719
)

func main() {
	var (
		seconds = flag.Float64("seconds", defaultSeconds, "virtual seconds per cell")
		seed    = flag.Uint64("seed", defaultSeed, "jitter PRNG seed")
		jsonOut = flag.String("json", "", "write the report to this file")
		check   = flag.String("check", "", "compare against a pinned report and fail on any difference")
	)
	flag.Parse()

	rep := measureAll(*seconds, *seed, os.Stdout)
	if err := invariant(rep); err != nil {
		fatal("%v", err)
	}
	if *jsonOut != "" {
		if err := pin.Write(*jsonOut, rep); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}
	if *check != "" {
		if err := checkPin(rep, *check); err != nil {
			fatal("check against %s: %v", *check, err)
		}
		fmt.Printf("check against %s passed (exact)\n", *check)
	}
}

// measureAll runs the scenario × estimator matrix, printing one table
// row per cell to w.
func measureAll(seconds float64, seed uint64, w io.Writer) Report {
	rep := Report{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Seconds:   seconds,
		Seed:      seed,
	}
	fmt.Fprintf(w, "%-8s %-6s %9s %9s %7s %10s %10s %11s\n",
		"scenario", "est", "produced", "consumed", "drop%", "mean(ms)", "jitter(ms)", "converge(s)")
	for _, sc := range []string{"steady", "jitter", "step"} {
		for _, est := range []string{"raw", "aimd"} {
			res := measure(sc, est, seconds, seed)
			rep.Results = append(rep.Results, res)
			fmt.Fprintf(w, "%-8s %-6s %9d %9d %6.1f%% %10.2f %10.2f %11.2f\n",
				res.Scenario, res.Estimator, res.Produced, res.Consumed,
				100*res.DropRatio, res.MeanIntervalMs, res.JitterMs, res.ConvergenceS)
		}
	}
	return rep
}

// invariant checks the headline claim the estimator exists for on the
// fresh numbers: under the jittery consumer, AIMD damping buys at least
// 2x lower source-rate jitter without costing drops.
func invariant(rep Report) error {
	var raw, aimd Result
	for _, r := range rep.Results {
		switch r.key() {
		case "jitter/raw":
			raw = r
		case "jitter/aimd":
			aimd = r
		}
	}
	var errs []error
	if aimd.JitterMs*2 > raw.JitterMs {
		errs = append(errs, fmt.Errorf("INVARIANT jitter/aimd jitter %.2fms not 2x below jitter/raw %.2fms",
			aimd.JitterMs, raw.JitterMs))
	}
	if aimd.DropRatio > raw.DropRatio {
		errs = append(errs, fmt.Errorf("INVARIANT jitter/aimd drop ratio %.3f worse than jitter/raw %.3f",
			aimd.DropRatio, raw.DropRatio))
	}
	return errors.Join(errs...)
}

// checkPin compares the fresh matrix to the pinned report exactly.
func checkPin(rep Report, path string) error {
	var pinned Report
	if err := pin.Load(path, &pinned); err != nil {
		return err
	}
	return pin.Compare([]pin.Param{
		{Name: "seed", Pinned: pinned.Seed, Running: rep.Seed},
		{Name: "virtual_seconds", Pinned: pinned.Seconds, Running: rep.Seconds},
	}, pinned.Results, rep.Results, Result.key)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aru: "+format+"\n", args...)
	os.Exit(1)
}

// consumerPeriod yields the consumer's compute period for one iteration
// of the given load shape. The jitter source is the shared seeded
// xorshift64 (internal/rand), which reproduces this command's original
// private stream bit for bit — the BENCH_aru.json pin depends on it.
func consumerPeriod(scenario string, rng *rand.Rand, now, total time.Duration) time.Duration {
	switch scenario {
	case "steady":
		return bottleneck
	case "jitter":
		// Uniform on [bottleneck-amp, bottleneck+amp].
		span := 2 * int64(jitterAmp)
		return bottleneck - jitterAmp + time.Duration(int64(rng.Uint64()%uint64(span)))
	case "step":
		// Bottleneck for the first half, twice that for the second: the
		// estimator must track a structural slowdown, not smooth it away.
		if now < total/2 {
			return bottleneck
		}
		return 2 * bottleneck
	default:
		fatal("unknown scenario %q", scenario)
		return 0
	}
}

// measure runs one cell: src -> channel -> consumer on the virtual
// clock, the source paced purely by feedback, and derives the cell's
// statistics from the source's put timestamps.
func measure(scenario, estimator string, seconds float64, seed uint64) Result {
	total := time.Duration(seconds * float64(time.Second))
	clk := clock.NewVirtual()
	policy := core.PolicyMin()
	switch estimator {
	case "raw":
	case "aimd":
		policy = policy.WithEstimator(core.AIMDFactory(core.DefaultAIMDConfig()))
	default:
		fatal("unknown estimator %q", estimator)
	}
	run := rt.New(rt.Options{Clock: clk, ARU: policy})
	ch := run.MustAddChannel("C", 0)

	var putTimes []time.Duration
	var consumed int64
	src := run.MustAddThread("src", 0, func(ctx *rt.Ctx) error {
		out := ctx.Outs()[0]
		var ts vt.Timestamp
		for !ctx.Stopped() {
			ts++
			ctx.Compute(2 * time.Millisecond)
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				return err
			}
			putTimes = append(putTimes, clk.Now())
			ctx.Sync()
		}
		return nil
	})
	cons := run.MustAddThread("cons", 0, func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		rng := rand.New(seed)
		for {
			if _, err := ctx.GetLatest(in); err != nil {
				return err
			}
			consumed++
			ctx.Compute(consumerPeriod(scenario, rng, clk.Now(), total))
			ctx.Sync()
		}
	})
	src.MustOutput(ch)
	cons.MustInput(ch)
	if err := run.RunFor(total); err != nil {
		fatal("%s/%s: %v", scenario, estimator, err)
	}

	res := Result{
		Scenario:  scenario,
		Estimator: estimator,
		Produced:  int64(len(putTimes)),
		Consumed:  consumed,
	}
	if res.Produced > 0 {
		res.DropRatio = 1 - float64(res.Consumed)/float64(res.Produced)
	}
	intervals, starts := intervalsOf(putTimes)
	if len(intervals) == 0 {
		return res
	}

	// Steady-state statistics over the second half of the run: past any
	// cold-start transient, and for the step shape entirely inside the
	// post-step regime, so its convergence number measures how fast the
	// pacing tracked the structural slowdown.
	warmup := total / 2
	var steady []float64
	for i, at := range starts {
		if at >= warmup {
			steady = append(steady, intervals[i])
		}
	}
	if len(steady) == 0 {
		steady = intervals
	}
	mean, std := meanStd(steady)
	res.MeanIntervalMs = mean / float64(time.Millisecond)
	res.JitterMs = std / float64(time.Millisecond)
	res.ConvergenceS = convergence(intervals, starts, mean, total).Seconds()
	return res
}

// intervalsOf converts put timestamps to (interval, interval-start)
// pairs, in clock units.
func intervalsOf(times []time.Duration) (intervals []float64, starts []time.Duration) {
	for i := 1; i < len(times); i++ {
		intervals = append(intervals, float64(times[i]-times[i-1]))
		starts = append(starts, times[i-1])
	}
	return intervals, starts
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// convergence finds when the paced interval settled: the start time of
// the first 8-interval window whose rolling mean is within 10% of the
// steady mean and stays within 25% for every later window. If pacing
// never settles the full run length is reported — raw propagation under
// heavy jitter legitimately never converges by this definition.
func convergence(intervals []float64, starts []time.Duration, steadyMean float64, total time.Duration) time.Duration {
	const w = 8
	if len(intervals) < w || steadyMean <= 0 {
		return total
	}
	roll := make([]float64, 0, len(intervals)-w+1)
	sum := 0.0
	for i, x := range intervals {
		sum += x
		if i >= w {
			sum -= intervals[i-w]
		}
		if i >= w-1 {
			roll = append(roll, sum/w)
		}
	}
	// lastBad[i]: does any window at or after i leave the wide band?
	bad := len(roll) // index of the last window violating the wide band, +1
	for i := len(roll) - 1; i >= 0; i-- {
		if math.Abs(roll[i]-steadyMean) > 0.25*steadyMean {
			break
		}
		bad = i
	}
	for i := bad; i < len(roll); i++ {
		if math.Abs(roll[i]-steadyMean) <= 0.10*steadyMean {
			return starts[i]
		}
	}
	return total
}
