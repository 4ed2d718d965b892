package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/huffduff/huffduff/internal/prof"
)

func discard(string, ...any) {}

// fakeScenarios returns instant scenarios with deterministic metrics so the
// append/gate logic can be tested without multi-second attack runs.
func fakeScenarios() []scenario {
	return []scenario{
		{"attack_fake", func() (Metrics, error) {
			return Metrics{
				"wall_seconds":   1.0,
				"victim_queries": 100,
				"device_seconds": 0.5,
				"device_cycles":  1e8,
				"solution_count": 4,
			}, nil
		}},
		{"encode_fake", func() (Metrics, error) {
			return Metrics{"values_per_second": 1e6, "bytes_per_second": 1e5}, nil
		}},
	}
}

func TestAppendsAndGates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")

	// First run: no history, gate vacuously passes, record written.
	bad, err := runBench(path, fakeScenarios(), nil, true, false, discard)
	if err != nil || len(bad) != 0 {
		t.Fatalf("first run: regressions=%v err=%v", bad, err)
	}
	recs, err := loadRecords(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("after first run: %d records, err=%v", len(recs), err)
	}
	for _, m := range []string{"wall_seconds", "victim_queries", "device_cycles"} {
		if _, ok := recs[0].Scenarios["attack_fake"][m]; !ok {
			t.Errorf("record missing %s", m)
		}
	}
	if recs[0].Timestamp == "" || recs[0].GoVersion == "" {
		t.Errorf("record missing provenance: %+v", recs[0])
	}

	// Second run: appends rather than overwrites, identical metrics pass.
	bad, err = runBench(path, fakeScenarios(), nil, true, false, discard)
	if err != nil || len(bad) != 0 {
		t.Fatalf("second run: regressions=%v err=%v", bad, err)
	}
	if recs, _ = loadRecords(path); len(recs) != 2 {
		t.Fatalf("second run did not append: %d records", len(recs))
	}

	// Third run with an injected 2x slowdown: the wall-time gate trips.
	bad, err = runBench(path, fakeScenarios(), slowdowns{"attack_fake": 2}, true, false, discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.Contains(bad[0], "attack_fake: wall_seconds") {
		t.Fatalf("2x slowdown not caught: %v", bad)
	}
	// The regressed record is still appended — the trajectory keeps the
	// bad data point, the exit code carries the verdict.
	if recs, _ = loadRecords(path); len(recs) != 3 {
		t.Fatalf("regressed run not recorded: %d records", len(recs))
	}

	// Fourth run with -no-gate: same slowdown, no failure.
	bad, err = runBench(path, fakeScenarios(), slowdowns{"attack_fake": 4}, false, false, discard)
	if err != nil || len(bad) != 0 {
		t.Fatalf("no-gate run: regressions=%v err=%v", bad, err)
	}
}

func TestCompareRules(t *testing.T) {
	prev := Record{Scenarios: map[string]Metrics{
		"s": {"wall_seconds": 1, "victim_queries": 100, "values_per_second": 1e6, "unguarded": 1},
	}}
	cases := []struct {
		name string
		next Metrics
		want int
	}{
		{"identical", Metrics{"wall_seconds": 1, "victim_queries": 100, "values_per_second": 1e6}, 0},
		{"within wall threshold", Metrics{"wall_seconds": 1.5}, 0},
		{"wall regression", Metrics{"wall_seconds": 2.0}, 1},
		{"query regression", Metrics{"victim_queries": 120}, 1},
		{"throughput collapse", Metrics{"values_per_second": 4e5}, 1},
		{"throughput improvement", Metrics{"values_per_second": 5e6}, 0},
		{"unguarded metric ignored", Metrics{"unguarded": 100}, 0},
		{"new metric ignored", Metrics{"brand_new": 5}, 0},
	}
	for _, c := range cases {
		next := Record{Scenarios: map[string]Metrics{"s": c.next}}
		if got := compare(prev, next, false); len(got) != c.want {
			t.Errorf("%s: got %d regressions (%v), want %d", c.name, len(got), got, c.want)
		}
	}
	// A scenario missing from the previous record is not gated.
	if got := compare(Record{}, Record{Scenarios: map[string]Metrics{"s": {"wall_seconds": 99}}}, false); len(got) != 0 {
		t.Errorf("new scenario gated against nothing: %v", got)
	}
}

func TestRuleForStageFamily(t *testing.T) {
	for _, m := range []string{"stage_probe_wall_seconds", "stage_total_wall_seconds"} {
		r, ok := ruleFor(m)
		if !ok || r.higherBetter || r.deterministic {
			t.Errorf("ruleFor(%q) = %+v, %v; want a loose lower-is-better wall rule", m, r, ok)
		}
	}
	// Alloc/GC stage metrics are recorded but deliberately not gated.
	for _, m := range []string{"stage_probe_alloc_bytes", "stage_solve_gc_cpu_seconds"} {
		if _, ok := ruleFor(m); ok {
			t.Errorf("ruleFor(%q) gated a non-wall stage metric", m)
		}
	}
	// Exact rules still win.
	if r, ok := ruleFor("trace_events"); !ok || !r.deterministic {
		t.Errorf("ruleFor(trace_events) = %+v, %v", r, ok)
	}
	if _, ok := ruleFor("nonsense"); ok {
		t.Error("ruleFor invented a rule for an unknown metric")
	}
}

func TestStageWallRegressionGates(t *testing.T) {
	prev := Record{Scenarios: map[string]Metrics{
		"s": {"stage_probe_wall_seconds": 1.0, "trace_events": 1000},
	}}
	next := Record{Scenarios: map[string]Metrics{
		"s": {"stage_probe_wall_seconds": 3.0, "trace_events": 1000},
	}}
	if got := compare(prev, next, false); len(got) != 1 || !strings.Contains(got[0], "stage_probe_wall_seconds") {
		t.Errorf("3x stage slowdown not caught: %v", got)
	}
	// Stage wall times are host noise in deterministic-only mode...
	if got := compare(prev, next, true); len(got) != 0 {
		t.Errorf("stage wall gated cross-machine: %v", got)
	}
	// ...but trace_events drift is code drift everywhere.
	next.Scenarios["s"]["trace_events"] = 1200
	if got := compare(prev, next, true); len(got) != 1 || !strings.Contains(got[0], "trace_events") {
		t.Errorf("trace_events drift missed: %v", got)
	}
}

func TestAddStageMetrics(t *testing.T) {
	rep := &prof.Report{
		StageWallSeconds:    4.5,
		TraceEvents:         1000,
		WallPerDeviceSecond: 250,
		SymCells:            5000,
		Stages: []prof.StageCost{
			{Stage: "probe", WallSeconds: 4, AllocBytes: 1 << 20, GCCPUSeconds: 0.1},
			{Stage: "solve", WallSeconds: 0.5},
		},
	}
	m := Metrics{}
	addStageMetrics(m, rep)
	want := Metrics{
		"stage_probe_wall_seconds":   4,
		"stage_probe_alloc_bytes":    1 << 20,
		"stage_probe_gc_cpu_seconds": 0.1,
		"stage_solve_wall_seconds":   0.5,
		"stage_solve_alloc_bytes":    0,
		"stage_solve_gc_cpu_seconds": 0,
		"stage_total_wall_seconds":   4.5,
		"trace_events":               1000,
		"wall_device_ratio":          250,
		"sym_cells":                  5000,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	// Zero-valued derived metrics stay out rather than polluting the record.
	m2 := Metrics{}
	addStageMetrics(m2, &prof.Report{})
	for _, absent := range []string{"trace_events", "wall_device_ratio", "sym_cells"} {
		if _, ok := m2[absent]; ok {
			t.Errorf("empty report emitted %s", absent)
		}
	}
}

func TestDeltaLines(t *testing.T) {
	prev := Record{Scenarios: map[string]Metrics{
		"a": {"wall_seconds": 2.0, "gone": 1},
		"z": {"wall_seconds": 1.0},
	}}
	next := Record{Scenarios: map[string]Metrics{
		"a":         {"wall_seconds": 1.0, "fresh": 3},
		"z":         {"wall_seconds": 1.5},
		"brand_new": {"wall_seconds": 9},
	}}
	lines := deltaLines(prev, next)
	want := []string{
		"delta a: wall_seconds 2 -> 1 (-50.0%)",
		"delta z: wall_seconds 1 -> 1.5 (+50.0%)",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %v, want %d", len(lines), lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestSlowdownsFlag(t *testing.T) {
	s := slowdowns{}
	if err := s.Set("attack_smallcnn=2"); err != nil {
		t.Fatal(err)
	}
	if s["attack_smallcnn"] != 2 {
		t.Fatalf("parsed %v", s)
	}
	for _, bad := range []string{"nofactor", "x=", "x=-1", "x=zero"} {
		if err := s.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// TestRealScenariosProduceRequiredMetrics runs the true benchmark suite
// once (tens of seconds) and checks every acceptance-relevant metric is
// present and sane in the appended record.
func TestRealScenariosProduceRequiredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark scenarios")
	}
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	env := newBenchEnv()
	bad, err := runBench(path, scenarios(env), nil, true, false, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("first run cannot regress: %v", bad)
	}
	recs, err := loadRecords(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("records=%d err=%v", len(recs), err)
	}
	for _, name := range []string{"attack_smallcnn", "attack_resnet18"} {
		m := recs[0].Scenarios[name]
		for _, k := range []string{"wall_seconds", "victim_queries", "device_seconds", "device_cycles", "solution_count"} {
			if m[k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, k, m[k])
			}
		}
		if m["device_cycles"] < m["device_seconds"] {
			t.Errorf("%s: cycles %v below seconds %v (clock rate lost?)", name, m["device_cycles"], m["device_seconds"])
		}
		// Cost attribution: the per-stage wall times must account for the
		// scenario's end-to-end wall time to within 10% (the acceptance bar
		// for the profiling subsystem — unattributed time means a stage is
		// missing its span).
		sum := m["stage_total_wall_seconds"]
		if sum <= 0 {
			t.Fatalf("%s: no stage wall attribution in %v", name, m)
		}
		if ratio := sum / m["wall_seconds"]; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: stages cover %.1f%% of wall time, want within 10%%", name, 100*ratio)
		}
		for _, stage := range []string{"calibrate", "probe", "solve", "geometry", "timing", "finalize"} {
			if _, ok := m["stage_"+stage+"_wall_seconds"]; !ok {
				t.Errorf("%s: stage %s missing from record", name, stage)
			}
		}
		if m["trace_events"] <= 0 || m["wall_device_ratio"] <= 0 || m["sym_cells"] <= 0 {
			t.Errorf("%s: simulator cost metrics missing: %v", name, m)
		}
		rep := env.reports[name]
		if !strings.Contains(rep, "attributed cost report") || !strings.Contains(rep, "probe") {
			t.Errorf("%s: hotspot report missing or empty:\n%s", name, rep)
		}
	}
	if recs[0].Scenarios["encode_micro"]["values_per_second"] <= 0 {
		t.Errorf("encoder throughput missing: %v", recs[0].Scenarios["encode_micro"])
	}
	dm := recs[0].Scenarios["daemon_restart"]
	if dm["campaigns_resumed"] != 3 || dm["campaigns_completed"] != 3 {
		t.Errorf("daemon_restart recovery counts: %v", dm)
	}
	if dm["journal_appends"] <= 0 || dm["wall_seconds"] <= 0 {
		t.Errorf("daemon_restart journal metrics missing: %v", dm)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicOnlyGate(t *testing.T) {
	prev := Record{Scenarios: map[string]Metrics{
		"s": {"wall_seconds": 1, "victim_queries": 100, "values_per_second": 1e6},
	}}
	// A 3x wall slowdown and throughput collapse on different hardware are
	// forgiven; a victim-query increase is code drift and still fails.
	next := Record{Scenarios: map[string]Metrics{
		"s": {"wall_seconds": 3, "victim_queries": 100, "values_per_second": 2e5},
	}}
	if got := compare(prev, next, true); len(got) != 0 {
		t.Errorf("machine-dependent metrics gated in deterministic-only mode: %v", got)
	}
	next.Scenarios["s"]["victim_queries"] = 150
	if got := compare(prev, next, true); len(got) != 1 {
		t.Errorf("deterministic regression missed: %v", got)
	}

	// The daemon_restart scenario's only gated metric is wall_seconds
	// (machine-dependent), so a cross-machine -deterministic-only gate
	// must tolerate it no matter how much its timing drifts.
	prev = Record{Scenarios: map[string]Metrics{
		"daemon_restart": {"wall_seconds": 2, "campaigns_resumed": 3, "campaigns_completed": 3, "journal_appends": 20},
	}}
	next = Record{Scenarios: map[string]Metrics{
		"daemon_restart": {"wall_seconds": 10, "campaigns_resumed": 3, "campaigns_completed": 3, "journal_appends": 27},
	}}
	if got := compare(prev, next, true); len(got) != 0 {
		t.Errorf("daemon_restart tripped the deterministic-only gate: %v", got)
	}
}
