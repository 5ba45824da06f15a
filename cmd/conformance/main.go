// Command conformance runs the scenario catalog through the differential
// oracle and writes a JSON report, exiting non-zero on any failure. The
// -matrix flag picks what each scenario runs:
//
//	standard  every engine configuration (each algorithm, sequential and
//	          parallel, plus prepared-rebind) against the naive reference,
//	          with planner bound certification, streaming and metamorphic
//	          checks
//	faults    panics and delays forced at the canonical injection sites
//	          (see internal/faultinject): typed errors, no goroutine leaks,
//	          byte-identical clean re-runs; plus the run-level fdq/session
//	          record (the prepared-shape cache's eviction site)
//	wire      each scenario through fdqd on a loopback listener, directly
//	          (network/*) and behind the chaos proxy's fault schedules
//	          (chaos/*); plus the run-level fdqc/handshake record
//
//	conformance -tier small                    # CI tier, report to stdout
//	conformance -tier full -stable -out CONFORMANCE.json
//	conformance -tier small -matrix faults
//	conformance -tier small -matrix wire
//
// -stable zeroes all wall-clock timings so a regenerated report diffs
// cleanly against the committed evidence.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/oracle"
	"repro/internal/scenario"
)

// Report is the top-level JSON document.
type Report struct {
	Tier      string `json:"tier"`
	Scenarios int    `json:"scenarios"`
	Passed    int    `json:"passed"`
	Failed    int    `json:"failed"`

	ConfigRuns     int `json:"config_runs"`
	ConfigPasses   int `json:"config_passes"`
	ConfigSkips    int `json:"config_skips"`
	MetamorphicRun int `json:"metamorphic_runs"`

	// Bound-certification stats over scenarios with a finite planner bound:
	// slack is predicted log2 bound minus actual log2 output size.
	BoundsCertified int      `json:"bounds_certified"`
	BoundsFinite    int      `json:"bounds_finite"`
	MinSlack        *float64 `json:"min_slack_log2,omitempty"`
	MaxSlack        *float64 `json:"max_slack_log2,omitempty"`
	MeanSlack       *float64 `json:"mean_slack_log2,omitempty"`

	Millis  float64         `json:"millis"`
	Results []oracle.Result `json:"results,omitempty"`

	// The faults and wire matrices: one record per scenario plus the
	// run-level one, each a list of named checks (cells). A skipped
	// scenario cannot run the matrix at all (an unnamed-function UDF
	// cannot cross the wire).
	Cells            int                   `json:"cells,omitempty"`
	CellPasses       int                   `json:"cell_passes,omitempty"`
	CellSkips        int                   `json:"cell_skips,omitempty"`
	SkippedScenarios int                   `json:"skipped_scenarios,omitempty"`
	Records          []oracle.MatrixResult `json:"records,omitempty"`
}

// cellMatrices are the -matrix values besides standard: the per-scenario
// check and the run-level record that closes the run.
var cellMatrices = map[string]struct {
	instance func(context.Context, scenario.Instance) oracle.MatrixResult
	run      func(context.Context) oracle.MatrixResult
}{
	"faults": {oracle.CheckFaultInstance, oracle.CheckSessionFaults},
	"wire":   {oracle.CheckWireInstance, oracle.CheckHandshake},
}

func main() {
	tierFlag := flag.String("tier", "full", "catalog tier to run: small|full")
	outFlag := flag.String("out", "-", "report path, - for stdout")
	verbose := flag.Bool("v", false, "print per-scenario progress to stderr")
	stable := flag.Bool("stable", false, "zero all timings for a diff-stable committed report")
	matrix := flag.String("matrix", "standard", "what every scenario runs: standard|faults|wire")
	flag.Parse()

	tier, err := scenario.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cells, ok := cellMatrices[*matrix]
	if !ok && *matrix != "standard" {
		fmt.Fprintf(os.Stderr, "conformance: unknown -matrix %q (want standard|faults|wire)\n", *matrix)
		os.Exit(2)
	}

	ctx := context.Background()
	start := time.Now()
	rep := Report{Tier: *tierFlag}
	// tally counts one record's verdict and, under -v, prints its line.
	tally := func(name string, v oracle.Verdict, status, line string) {
		rep.Scenarios++
		if v.Pass {
			rep.Passed++
		} else {
			rep.Failed++
			status = "FAIL"
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%-4s %-40s %s %.0fms\n", status, name, line, v.Millis)
			for _, f := range v.Failures {
				fmt.Fprintf(os.Stderr, "     %s\n", f)
			}
		}
	}
	addRecord := func(res oracle.MatrixResult) {
		status := "ok"
		if res.Skipped != "" {
			rep.SkippedScenarios++
			status = "skip"
		}
		for _, c := range res.Checks {
			rep.Cells++
			switch c.Status {
			case oracle.StatusPass:
				rep.CellPasses++
			case oracle.StatusSkip:
				rep.CellSkips++
			}
		}
		rep.Records = append(rep.Records, res)
		tally(res.Scenario, res.Verdict, status, fmt.Sprintf("%d cells", len(res.Checks)))
	}

	var slackSum float64
	cfgs := oracle.DefaultConfigs()
	for _, in := range scenario.Instances(tier) {
		if ok {
			addRecord(cells.instance(ctx, in))
			continue
		}
		res := oracle.CheckInstance(ctx, in, cfgs)
		for _, c := range res.Configs {
			rep.ConfigRuns++
			switch c.Status {
			case oracle.StatusPass:
				rep.ConfigPasses++
			case oracle.StatusSkip:
				rep.ConfigSkips++
			}
		}
		rep.MetamorphicRun += len(res.Metamorphic)
		if res.BoundCertified {
			rep.BoundsCertified++
		}
		if res.BoundSlack != nil {
			rep.BoundsFinite++
			s := *res.BoundSlack
			slackSum += s
			if rep.MinSlack == nil || s < *rep.MinSlack {
				rep.MinSlack = ptr(s)
			}
			if rep.MaxSlack == nil || s > *rep.MaxSlack {
				rep.MaxSlack = ptr(s)
			}
		}
		rep.Results = append(rep.Results, res)
		tally(res.Scenario, res.Verdict, "ok", fmt.Sprintf("plan=%s out=%d", res.PlanAlgorithm, res.OutRows))
	}
	if ok {
		addRecord(cells.run(ctx))
	}
	if rep.BoundsFinite > 0 {
		rep.MeanSlack = ptr(round3(slackSum / float64(rep.BoundsFinite)))
		*rep.MinSlack = round3(*rep.MinSlack)
		*rep.MaxSlack = round3(*rep.MaxSlack)
	}
	rep.Millis = float64(time.Since(start).Microseconds()) / 1000
	if *stable {
		rep.Millis = 0
		for i := range rep.Results {
			rep.Results[i].Millis = 0
			for j := range rep.Results[i].Configs {
				rep.Results[i].Configs[j].Millis = 0
			}
		}
		for i := range rep.Records {
			rep.Records[i].Millis = 0
		}
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	if *outFlag == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*outFlag, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "conformance -matrix %s: %d scenarios, %d passed, %d failed, ", *matrix, rep.Scenarios, rep.Passed, rep.Failed)
	if ok {
		fmt.Fprintf(os.Stderr, "%d cells (%d skips), %d scenarios skipped\n", rep.Cells, rep.CellSkips, rep.SkippedScenarios)
	} else {
		fmt.Fprintf(os.Stderr, "%d config runs (%d skips), %d bounds certified\n", rep.ConfigRuns, rep.ConfigSkips, rep.BoundsCertified)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func ptr(f float64) *float64 { return &f }

// round3 keeps the committed report diff-stable across float noise.
func round3(f float64) float64 { return math.Round(f*1000) / 1000 }
