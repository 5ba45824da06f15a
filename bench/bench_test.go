package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var quick = Config{Seed: 1, Quick: true}

// quickSuite runs both passes of every workload once at the quick tier and
// shares the result between the tests below.
var quickSuite = sync.OnceValues(func() (*Result, error) {
	res := &Result{Stamp: NewStamp(quick)}
	for _, w := range Workloads() {
		for _, pass := range []func(*Workload, Config) (*Run, error){Measure, Trace} {
			run, err := pass(w, quick)
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, run)
		}
	}
	return res, nil
})

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesDeclarations pins BENCHMARK.json to the tables the
// command reports from, and both to the contract's limits.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared, contract wants 2..8", len(m.Workloads), len(workloads))
	}
	if len(m.EndToEnd) != len(EndToEnd) || len(m.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared, contract wants at most 16", len(m.EndToEnd), len(EndToEnd))
	}
	if len(m.PerLayer) != len(PerLayer) || len(m.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared, contract wants at most 128", len(m.PerLayer), len(PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, declared %q (or their whys differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for i, e := range m.EndToEnd {
		name(e.Name)
		d := EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound == nil || *e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, declared %+v", i, e, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, p := range m.PerLayer {
		name(p.Name)
		d := PerLayer[i]
		if p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, declared %+v", i, p, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no statement of which end-to-end metric it should move", d.Name)
		}
	}
	for _, n := range ExactRepeat {
		if !seen[n] {
			t.Errorf("exact-repeat count %s is not a declared per-layer metric", n)
		}
	}
}

// TestQuickSuiteEmitsEveryMetric runs the whole suite at the quick tier and
// checks that every declared metric of every workload comes out, no op
// fails, and each workload exercises the layer it was chosen for.
func TestQuickSuiteEmitsEveryMetric(t *testing.T) {
	res, err := quickSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2*len(workloads) {
		t.Fatalf("%d passes, want %d", len(res.Runs), 2*len(workloads))
	}
	for _, run := range res.Runs {
		vals, err := run.Values()
		if err != nil {
			t.Errorf("%s traced=%v: %v", run.Workload, run.Traced, err)
			continue
		}
		decl := EndToEnd
		if run.Traced {
			decl = PerLayer
		}
		if len(vals) != len(decl) {
			t.Errorf("%s traced=%v: %d metrics, %d declared", run.Workload, run.Traced, len(vals), len(decl))
		}
		for _, d := range decl {
			if v := vals[d.Name]; v.Unit != d.Unit {
				t.Errorf("%s %s: unit %q, declared %q", run.Workload, d.Name, v.Unit, d.Unit)
			} else if !run.Traced && v.Value <= 0 {
				t.Errorf("%s %s: end-to-end metric is %v, must never be 0", run.Workload, d.Name, v.Value)
			}
		}
		if run.Failed != 0 || run.Attempted == 0 {
			t.Errorf("%s traced=%v: %d of %d ops failed: %s", run.Workload, run.Traced, run.Failed, run.Attempted, run.FirstError)
		}
		line, err := DriverLine(run)
		if err != nil || !strings.HasPrefix(line, `{"correct":true,"attempted":`) {
			t.Errorf("%s: driver line %q, %v", run.Workload, line, err)
		}
		if run.Traced && len(run.Spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", run.Workload)
		}
	}

	layer := func(workload, metric string) float64 { return res.run(workload, true).Metrics[metric] }
	for _, w := range []string{"fd-warm", "wcoj-warm", "par-skew", "reload-churn"} {
		if n := layer(w, "fdq.cache_misses"); n != 0 {
			t.Errorf("%s: %v cache misses in the traced pass; planning must be off the path", w, n)
		}
	}
	if share := layer("plan-cold", "engine.plan_share"); share <= 0.5 {
		t.Errorf("plan-cold: plan share %v, want planning to dominate", share)
	}
	if n := layer("plan-cold", "fdq.cache_misses"); n == 0 {
		t.Error("plan-cold: no cache miss; every round must plan from scratch")
	}
	if layer("reload-churn", "fdq.rebind_ms") <= 0 || layer("reload-churn", "engine.cold_index_ms") <= 0 {
		t.Error("reload-churn: re-bind and cold index build must both cost something")
	}
	if c, e := layer("wire-loopback", "fdqc.collect_ms"), layer("wire-loopback", "engine.run_collect_ms"); c <= e {
		t.Errorf("wire-loopback: collect over the wire %v ms is not above the engine's %v ms", c, e)
	}
	for _, w := range workloads {
		if n := layer(w.Name, "engine.planned_binary"); n != 0 {
			t.Errorf("%s: %v queries hit the planner's tiny-input rule", w.Name, n)
		}
	}
	if n := layer("fd-warm", "engine.planned_generic"); n != 0 {
		t.Errorf("fd-warm: %v queries routed to generic join", n)
	}
	if n := layer("wcoj-warm", "engine.planned_generic"); int(n) != len(res.run("wcoj-warm", true).Queries) {
		t.Errorf("wcoj-warm: only %v queries routed to generic join", n)
	}
}

// TestExactRepeat runs the traced pass a second time at the same seed: the
// counts that describe the workload must not move at all.
func TestExactRepeat(t *testing.T) {
	res, err := quickSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		again, err := Trace(w, quick)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := ExactDiffs(res.run(w.Name, true), again); len(diffs) > 0 {
			t.Errorf("%s: counts differ between two runs at one seed: %v", w.Name, diffs)
		}
	}
	// And the guard itself reports a changed workload.
	a := res.run("fd-warm", true)
	b := *a
	b.Metrics = map[string]float64{}
	for k, v := range a.Metrics {
		b.Metrics[k] = v
	}
	b.Metrics["fdqd.rows_streamed"]++
	if diffs := ExactDiffs(a, &b); len(diffs) != 1 {
		t.Errorf("a changed row count was reported as %v", diffs)
	}
}

// TestCorruptedReferenceIsAFailedOp corrupts one reference digest: the
// collect that disagrees with it must be counted as failed and reported, and
// the command must exit non-zero, not time a wrong answer silently.
func TestCorruptedReferenceIsAFailedOp(t *testing.T) {
	w, err := WorkloadByName("wcoj-warm")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := setUp(w, quick)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.close()
	before := wd.attempted
	wd.insts[1].ver[0].ref.digest ^= 1
	wd.round()
	run := wd.newRun(false)
	wd.finish(run)
	if run.Failed != 1 || run.Attempted-before != len(wd.insts)*int(numOps) {
		t.Fatalf("%d of %d ops failed, want exactly the one collect", run.Failed, run.Attempted-before)
	}
	if !strings.Contains(run.FirstError, "collect") || !strings.Contains(run.FirstError, wd.insts[1].label) || !strings.Contains(run.FirstError, "digest") {
		t.Errorf("failure not attributed to the corrupted collect: %q", run.FirstError)
	}
	res := &Result{Runs: []*Run{run}}
	if code := res.ExitCode(0); code == 0 {
		t.Error("a failed op must make the command exit non-zero")
	}
	run.Metrics = map[string]float64{}
	for _, m := range EndToEnd {
		run.Metrics[m.Name] = 1
	}
	if line, err := DriverLine(run); err != nil || !strings.HasPrefix(line, `{"correct":false,`) {
		t.Errorf("driver line %q, %v", line, err)
	}
}

// TestStampsGateComparison checks that results from differing environments
// are refused, not compared.
func TestStampsGateComparison(t *testing.T) {
	base := Stamp{GoVersion: "go1.24.0", GOMAXPROCS: 2, NumCPU: 2, Commit: "a", Seed: 1, CalibrateMS: 100}
	other := base
	other.Commit = "b"
	other.CalibrateMS = 108
	if err := base.Comparable(other); err != nil {
		t.Errorf("two commits on one box must be comparable: %v", err)
	}
	for name, change := range map[string]func(*Stamp){
		"go version": func(s *Stamp) { s.GoVersion = "go1.25.0" },
		"gomaxprocs": func(s *Stamp) { s.GOMAXPROCS = 1 },
		"nproc":      func(s *Stamp) { s.NumCPU = 8 },
		"seed":       func(s *Stamp) { s.Seed = 2 },
		"tier":       func(s *Stamp) { s.Quick = true },
		"calib":      func(s *Stamp) { s.CalibrateMS = 140 },
	} {
		s := base
		change(&s)
		if base.Comparable(s) == nil {
			t.Errorf("stamps differing in %s compared", name)
		}
		var out bytes.Buffer
		if _, err := Compare(&out, &Result{Stamp: base}, &Result{Stamp: s}); err == nil {
			t.Errorf("Compare accepted stamps differing in %s", name)
		}
	}
}

// TestCompareAppliesBounds checks the self-check rule: worse by more than
// the bound is outside, in the metric's own direction.
func TestCompareAppliesBounds(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range EndToEnd {
		bound[d.Name] = d.Bound
	}
	rb, qb := bound["round_p50_ms"], bound["queries_per_s"]
	mk := func(round, qps float64) *Result {
		m := map[string]float64{}
		for _, d := range EndToEnd {
			m[d.Name] = 1
		}
		m["round_p50_ms"], m["queries_per_s"] = round, qps
		return &Result{Runs: []*Run{{Workload: "fd-warm", Metrics: m}}}
	}
	for _, c := range []struct {
		round, qps float64
		outside    int
	}{
		{1 + rb - 0.01, 1 - qb + 0.01, 0}, // worse, but inside
		{0.5, 2, 0},                       // better by any amount is never outside
		{1 + rb + 0.01, 1, 1},
		{1, 1 - qb - 0.01, 1},
		{1 + rb + 0.01, 1 - qb - 0.01, 2},
	} {
		var out bytes.Buffer
		got, err := Compare(&out, mk(1, 1), mk(c.round, c.qps))
		if err != nil || got != c.outside {
			t.Errorf("round ×%v, throughput ×%v: %d outside (%v), want %d\n%s", c.round, c.qps, got, err, c.outside, out.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "replay", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "plan", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "exec", StartNS: 40, EndNS: 90},
		{ID: 4, Name: "replay", StartNS: 100, EndNS: 150},
		{ID: 5, Parent: 4, Name: "exec", StartNS: 100, EndNS: 140},
		{ID: 6, Parent: 4, Name: "exec", StartNS: 120, EndNS: 150}, // overlaps its sibling: covered once
	}
	got := SelfTimes(spans)
	want := []SelfTime{{"replay", 2, 150, 20}, {"plan", 1, 30, 30}, {"exec", 3, 120, 120}}
	if len(got) != len(want) {
		t.Fatalf("got %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
