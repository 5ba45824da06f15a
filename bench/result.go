package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

// Stamp records where and on what a result was measured. Two results are
// comparable only when their stamps agree.
type Stamp struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	Commit      string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	Quick       bool    `json:"quick,omitempty"`
	CalibrateMS float64 `json:"calib_sort_hash_ms"`
}

// NewStamp stamps the current process. The commit comes from the build
// info when the binary was built inside a git checkout, else from git
// itself, else it is "unknown" (the driver's checkout is not a repository).
func NewStamp(cfg Config) Stamp {
	return Stamp{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Commit:      commit(),
		Seed:        cfg.Seed,
		Quick:       cfg.Quick,
		CalibrateMS: calibrate(cfg.tier().calibReps),
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// calibTolerance is how far two stamps' calibration kernels may differ
// before the box is taken to have changed under the benchmark.
const calibTolerance = 0.15

// Comparable reports why two stamps cannot be compared, or nil. The commit
// may differ (comparing commits is the point); everything else may not.
func (s Stamp) Comparable(o Stamp) error {
	switch {
	case s.GoVersion != o.GoVersion:
		return fmt.Errorf("bench: Go version differs: %s vs %s", s.GoVersion, o.GoVersion)
	case s.GOMAXPROCS != o.GOMAXPROCS || s.NumCPU != o.NumCPU:
		return fmt.Errorf("bench: cores differ: GOMAXPROCS %d/nproc %d vs %d/%d", s.GOMAXPROCS, s.NumCPU, o.GOMAXPROCS, o.NumCPU)
	case s.Seed != o.Seed || s.Quick != o.Quick:
		return fmt.Errorf("bench: workload differs: seed %d quick %v vs seed %d quick %v", s.Seed, s.Quick, o.Seed, o.Quick)
	}
	if d := math.Abs(s.CalibrateMS-o.CalibrateMS) / min(s.CalibrateMS, o.CalibrateMS); d > calibTolerance {
		return fmt.Errorf("bench: calibration kernel differs by %.0f%% (%.1f ms vs %.1f ms): not the same box, or not the same load on it",
			100*d, s.CalibrateMS, o.CalibrateMS)
	}
	return nil
}

// Result is one result file: the stamp and every pass that was run.
type Result struct {
	Stamp Stamp  `json:"stamp"`
	Runs  []*Run `json:"runs"`
}

// Failed is the number of failed ops over all passes.
func (r *Result) Failed() (n int) {
	for _, run := range r.Runs {
		n += run.Failed
	}
	return n
}

// ExitCode is the command's exit status: non-zero when any op failed or a
// comparison fell outside a bound, so a wrong answer is never just timed.
func (r *Result) ExitCode(outside int) int {
	if r.Failed() > 0 || outside > 0 {
		return 1
	}
	return 0
}

func (r *Result) run(workload string, traced bool) *Run {
	for _, run := range r.Runs {
		if run.Workload == workload && run.Traced == traced {
			return run
		}
	}
	return nil
}

// WriteJSON writes v to path, indented.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResult reads a result file written by WriteJSON.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Print writes every metric of the run by name with its unit.
func (run *Run) Print(w io.Writer) {
	pass, decl := "end-to-end, tracing off", EndToEnd
	if run.Traced {
		pass, decl = "per-layer, traced", PerLayer
	}
	fmt.Fprintf(w, "\n== %s (%s): %d rounds, %d queries, %d input rows, %.0f result rows per round, ops_attempted %d, ops_failed %d\n",
		run.Workload, pass, run.Rounds, len(run.Queries), run.InputRows, run.RowsPerRound, run.Attempted, run.Failed)
	fmt.Fprintf(w, "   queries: %s\n", strings.Join(run.Queries, " "))
	if run.FirstError != "" {
		fmt.Fprintf(w, "   first failure: %s\n", run.FirstError)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range decl {
		if v, ok := run.Metrics[m.Name]; ok {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s", m.Name, v, m.Unit)
			if raw, ok := run.Raw[m.Name]; ok {
				fmt.Fprintf(tw, "\t(wall clock %.6g)", raw)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	if !run.Traced {
		fmt.Fprintf(w, "   times are calibrated: wall clock × %.4f, the pace kernel's reference over its median in this run\n", run.CalibFactor)
	}
	if run.Traced {
		fmt.Fprintf(w, "   spans (total / self, ms):")
		for _, st := range SelfTimes(run.Spans) {
			fmt.Fprintf(w, " %s×%d %.1f/%.1f", st.Name, st.Count, ms(st.Total), ms(st.Self))
		}
		fmt.Fprintln(w)
	}
}

// Compare checks every workload × end-to-end metric of cand against base
// and every exact-repeat count, printing one line each. It returns the
// number of metrics outside their bound or counts that differ, and refuses
// (an error) when the stamps say the two results are not comparable.
func Compare(w io.Writer, base, cand *Result) (outside int, err error) {
	if err := base.Stamp.Comparable(cand.Stamp); err != nil {
		return 0, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t\n")
	for _, wl := range workloads {
		if b, c := base.run(wl.Name, false), cand.run(wl.Name, false); b != nil && c != nil {
			for _, m := range EndToEnd {
				bv, cv := b.Metrics[m.Name], c.Metrics[m.Name]
				worse := (cv - bv) / bv
				if m.Better == "higher" {
					worse = (bv - cv) / bv
				}
				verdict := ""
				if worse > m.Bound {
					verdict = "OUTSIDE"
					outside++
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", wl.Name, m.Name, bv, cv, 100*(cv-bv)/bv, 100*m.Bound, verdict)
			}
		}
		if b, c := base.run(wl.Name, true), cand.run(wl.Name, true); b != nil && c != nil {
			for _, diff := range ExactDiffs(b, c) {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t exact\tDIFFERS\n", wl.Name, diff)
				outside++
			}
		}
	}
	return outside, nil
}

// ExactDiffs lists the exact-repeat counts that differ between two passes
// over the same workload at the same seed. A differing count means the
// workload changed; it is an error, not noise.
func ExactDiffs(a, b *Run) (diffs []string) {
	if a.RowsPerRound != b.RowsPerRound {
		diffs = append(diffs, fmt.Sprintf("rows_per_round %v vs %v", a.RowsPerRound, b.RowsPerRound))
	}
	if !a.Traced || !b.Traced {
		return diffs
	}
	for _, name := range ExactRepeat {
		if a.Metrics[name] != b.Metrics[name] {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, a.Metrics[name], b.Metrics[name]))
		}
	}
	return diffs
}

// Values returns the pass's declared metrics with their units: every
// end-to-end metric of an untraced pass, every per-layer metric of a traced
// one. A metric the pass did not produce is an error.
func (run *Run) Values() (map[string]Value, error) {
	if run.Traced {
		return values(PerLayer, run.Metrics)
	}
	return values(EndToEnd, run.Metrics)
}

// DriverLine is a one-pass result in the form the benchmark contract fixes:
// one JSON object with correct, attempted, failed and the pass's metrics.
func DriverLine(run *Run) (string, error) {
	metrics, err := run.Values()
	if err != nil {
		return "", err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{run.Failed == 0, run.Attempted, run.Failed, metrics})
	return string(line), err
}
