// Command tracker runs one execution of the color-based people tracker
// workload and reports its resource and performance metrics, per-thread
// periods, and per-channel statistics.
//
// Usage:
//
//	go run ./cmd/tracker -policy=min -hosts=1 -duration=120s
//	go run ./cmd/tracker -policy=off -gc=tgc -seed=7
//	go run ./cmd/tracker -policy=max -hosts=5 -series=footprint.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/trace"
	"repro/internal/tracker"
)

func main() {
	var (
		policy   = flag.String("policy", "min", "ARU policy: off, min, max")
		hosts    = flag.Int("hosts", 1, "cluster hosts (1 = paper config 1, 5 = config 2)")
		duration = flag.Duration("duration", 120*time.Second, "virtual run length")
		warmup   = flag.Duration("warmup", 15*time.Second, "virtual warmup discarded before analysis")
		seed     = flag.Int64("seed", 42, "workload seed")
		gcName   = flag.String("gc", "dgc", "garbage collector: dgc, tgc, none")
		series   = flag.String("series", "", "write the footprint-vs-time series to this CSV file")
		traceOut = flag.String("trace", "", "persist the raw execution trace to this file (analyze with cmd/traceview)")
		jsonOut  = flag.Bool("json", false, "emit the run summary as JSON instead of text")
		realtime = flag.Float64("realtime", 0, "run against the wall clock at this speed-up (0 = virtual clock)")

		hotstage = flag.Bool("hotstage", false, "run the elastic-recovery experiment (balanced vs hot vs hot+elastic) instead of a single run")
		outPath  = flag.String("out", "", "with -hotstage: write the report JSON to this file (e.g. BENCH_elastic.json)")
		check    = flag.String("check", "", "with -hotstage: compare against a pinned report and fail on any difference")
	)
	flag.Parse()

	if *hotstage {
		runHotStage(*outPath, *check)
		return
	}

	var p core.Policy
	switch *policy {
	case "off", "no", "none":
		p = core.PolicyOff()
	case "min":
		p = core.PolicyMin()
	case "max":
		p = core.PolicyMax()
	default:
		fmt.Fprintf(os.Stderr, "tracker: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	app, err := tracker.New(tracker.Config{
		Hosts:     *hosts,
		Seed:      *seed,
		Policy:    p,
		Collector: gc.ByName(*gcName),
		Scale:     *realtime,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracker: %v\n", err)
		os.Exit(1)
	}

	if *warmup >= *duration {
		fmt.Fprintf(os.Stderr, "tracker: warmup %v must be shorter than run %v\n", *warmup, *duration)
		os.Exit(2)
	}

	fmt.Printf("color-based people tracker: policy=%s gc=%s hosts=%d duration=%v seed=%d\n",
		p.Name(), *gcName, *hosts, *duration, *seed)
	start := time.Now()
	if err := app.Runtime.RunFor(*duration); err != nil {
		fmt.Fprintf(os.Stderr, "tracker: %v\n", err)
		os.Exit(1)
	}
	// One snapshot of the trace feeds the analysis, the report and -trace.
	events := app.Recorder.Events()
	a, err := trace.AnalyzeEvents(events, trace.AnalyzeOptions{From: *warmup, To: *duration})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("completed in %v wall time\n\n", time.Since(start).Round(time.Millisecond))

	if *jsonOut {
		if err := a.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "tracker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	const mb = 1 << 20
	fmt.Printf("memory footprint:   mean %.2f MB, STD %.2f MB, peak %.2f MB\n",
		a.All.MeanBytes/mb, a.All.StdBytes/mb, a.All.PeakBytes/mb)
	fmt.Printf("IGC lower bound:    mean %.2f MB (footprint is %.0f%% of ideal)\n",
		a.IGC.MeanBytes/mb, 100*a.All.MeanBytes/maxF(a.IGC.MeanBytes, 1))
	fmt.Printf("wasted memory:      %.1f%%    wasted computation: %.1f%%\n", a.WastedMemPct, a.WastedCompPct)
	fmt.Printf("throughput:         %.2f fps (%d outputs)\n", a.ThroughputFPS, a.Outputs)
	fmt.Printf("latency:            mean %v, STD %v (p50 %v, p95 %v, p99 %v)\n",
		a.LatencyMean.Round(time.Millisecond), a.LatencyStd.Round(time.Millisecond),
		a.LatencyP50.Round(time.Millisecond), a.LatencyP95.Round(time.Millisecond),
		a.LatencyP99.Round(time.Millisecond))
	fmt.Printf("jitter:             %v\n", a.Jitter.Round(time.Millisecond))
	fmt.Printf("items:              %d total, %d successful, %d wasted; %d gets, %d skips\n\n",
		a.ItemsTotal, a.ItemsSuccessful, a.ItemsWasted, a.Gets, a.Skips)

	rep := trace.BuildReport(events, a)
	rep.WriteThreads(os.Stdout, app.Runtime.Graph())
	fmt.Println()
	rep.WriteChannels(os.Stdout, app.Runtime.Graph())

	if *traceOut != "" {
		if err := trace.SaveFileNamed(*traceOut, events, trace.GraphNames(app.Runtime.Graph())); err != nil {
			fmt.Fprintf(os.Stderr, "tracker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nexecution trace written to %s\n", *traceOut)
	}

	if *series != "" {
		f, err := os.Create(*series)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracker: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := a.All.Series.WriteCSV(f, "footprint_bytes", *warmup, *duration, 1000); err != nil {
			fmt.Fprintf(os.Stderr, "tracker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("footprint series written to %s\n", *series)
	}
	_ = bench.Policies // keep the harness linked for discoverability
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
