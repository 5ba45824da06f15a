// Command fdqbench is the repository's one benchmark command.
//
//	fdqbench                         every workload, both passes, all metrics by name
//	fdqbench -workload fd-warm -trace 0 -seed 3 -seconds 8
//	                                 one pass of one workload; the last line of
//	                                 standard output is the result as one JSON object
//	fdqbench -selfcheck              the suite twice on this build, compared against
//	                                 the benchmark's own bounds
//	fdqbench -compare old.json       this run against an earlier result file
//
// It exits non-zero when an op failed, when a self-check or comparison is
// outside a bound, or when two results are not comparable. See
// bench/README.md for the workloads, the metrics and the trace file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/bench"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload (default: all six)")
		seed      = flag.Int64("seed", 1, "seed of the generated instances (scenario.Params.Seed)")
		seconds   = flag.Float64("seconds", 8, "measure for at least this long (and never fewer than 110 rounds)")
		trace     = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		quick     = flag.Bool("quick", false, "smallest sizes, 2 rounds: a smoke run, not a measurement")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and compare the two runs against the bounds")
		compare   = flag.String("compare", "", "compare this run against an earlier result file")
		out       = flag.String("out", ".bench_build", "directory for the result and span files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.Config{Seed: *seed, Seconds: *seconds, Quick: *quick}
	wls := bench.Workloads()
	if *workload != "" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		wls = []*bench.Workload{w}
	}

	res, err := suite(wls, cfg, *trace)
	if err != nil {
		fatal(err)
	}
	outside := 0
	switch {
	case *selfcheck:
		again, err := suite(wls, cfg, *trace)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n== self-check: two runs of the same build")
		if outside, err = bench.Compare(os.Stdout, res, again); err != nil {
			fatal(err)
		}
		res.Runs = append(res.Runs, again.Runs...)
	case *compare != "":
		base, err := bench.ReadResult(*compare)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n== %s (first) against this run (second)\n", *compare)
		if outside, err = bench.Compare(os.Stdout, base, res); err != nil {
			fatal(err)
		}
	}
	if err := write(*out, res); err != nil {
		fatal(err)
	}
	if len(res.Runs) == 1 {
		line, err := bench.DriverLine(res.Runs[0])
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
	if code := res.ExitCode(outside); code != 0 {
		fmt.Fprintf(os.Stderr, "fdqbench: %d ops failed, %d comparisons outside their bound\n", res.Failed(), outside)
		os.Exit(code)
	}
}

// suite runs the selected passes over the workloads and prints each.
func suite(wls []*bench.Workload, cfg bench.Config, trace int) (*bench.Result, error) {
	res := &bench.Result{Stamp: bench.NewStamp(cfg)}
	fmt.Printf("fdqbench: %s, GOMAXPROCS %d of %d cores, commit %s, seed %d, calib.sort_hash_ms %.2f\n",
		res.Stamp.GoVersion, res.Stamp.GOMAXPROCS, res.Stamp.NumCPU, res.Stamp.Commit, res.Stamp.Seed, res.Stamp.CalibrateMS)
	for _, w := range wls {
		if trace != 1 {
			run, err := bench.Measure(w, cfg)
			if err != nil {
				return nil, err
			}
			run.Print(os.Stdout)
			res.Runs = append(res.Runs, run)
		}
		if trace != 0 {
			run, err := bench.Trace(w, cfg)
			if err != nil {
				return nil, err
			}
			run.Print(os.Stdout)
			res.Runs = append(res.Runs, run)
		}
	}
	return res, nil
}

// write stores the result file and, when a traced pass ran, the span file.
func write(dir string, res *bench.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := bench.WriteJSON(filepath.Join(dir, "fdqbench-result.json"), res); err != nil {
		return err
	}
	var spans []bench.Span
	for _, run := range res.Runs {
		spans = append(spans, run.Spans...)
	}
	if spans == nil {
		return nil
	}
	return bench.WriteJSON(filepath.Join(dir, "fdqbench-spans.json"), spans)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fdqbench:", err)
	os.Exit(1)
}
