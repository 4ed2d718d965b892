package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one scenario's measurements, by metric name.
type Metrics map[string]float64

// Record is one huffbench run: every scenario's metrics under one
// timestamp. BENCH_pipeline.json is a JSON array of these, appended to on
// every run, so the file is the benchmark trajectory of the pipeline over
// time.
type Record struct {
	Timestamp string             `json:"timestamp"`
	GoVersion string             `json:"go_version"`
	Scenarios map[string]Metrics `json:"scenarios"`
}

// loadRecords reads the existing benchmark history; a missing file is an
// empty history.
func loadRecords(path string) ([]Record, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// saveRecords writes the full history back (append-style: callers append
// the new record to the loaded slice first).
func saveRecords(path string, recs []Record) error {
	raw, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// rule is the regression policy for one metric. A lower-is-better metric
// regresses when new > old*threshold; a higher-is-better one when
// new < old/threshold. Deterministic metrics (query counts, simulated
// device time) get tight thresholds and hold across machines; wall-clock
// metrics get loose ones so machine noise does not trip the gate, while a
// genuine 2x slowdown does.
type rule struct {
	higherBetter bool
	threshold    float64
	// deterministic metrics depend only on the code, not the machine, so
	// they can be gated against a baseline recorded elsewhere (CI vs. the
	// committed record).
	deterministic bool
}

var rules = map[string]rule{
	"wall_seconds":      {higherBetter: false, threshold: 1.8},
	"victim_queries":    {higherBetter: false, threshold: 1.05, deterministic: true},
	"device_seconds":    {higherBetter: false, threshold: 1.05, deterministic: true},
	"device_cycles":     {higherBetter: false, threshold: 1.05, deterministic: true},
	"solution_count":    {higherBetter: false, threshold: 1.05, deterministic: true},
	"values_per_second": {higherBetter: true, threshold: 1.8},
	"bytes_per_second":  {higherBetter: true, threshold: 1.8},
	// Cost-attribution metrics (internal/prof via attackScenario). Trace
	// events and the full-trial solve's symbolic cell count depend only on
	// the code path, so they gate across machines; the cell count gets
	// slack for solve-schedule tweaks.
	"trace_events": {higherBetter: false, threshold: 1.05, deterministic: true},
	"sym_cells":    {higherBetter: false, threshold: 1.1, deterministic: true},
	// wall/device is the simulator slowdown the fast-path work must cut; a
	// loose host-noise threshold still catches a hot-loop regression.
	"wall_device_ratio": {higherBetter: false, threshold: 2.5},
	// Convergence-ledger metrics: the final solution-space volume and the
	// query cost of 90% of the collapse depend only on the code path.
	"converge_log10_volume_final": {higherBetter: false, threshold: 1.05, deterministic: true},
	"converge_queries_to_90pct":   {higherBetter: false, threshold: 1.05, deterministic: true},
	// Campaign-store read path (store_readpath). The corpus is seeded, so
	// its shape — record/byte/segment counts, scan matches, model count —
	// depends only on the code and gates across machines; the per-operation
	// read latencies are host wall time and gate loosely, same-machine only.
	"store_records":    {higherBetter: false, threshold: 1.05, deterministic: true},
	"store_bytes":      {higherBetter: false, threshold: 1.1, deterministic: true},
	"store_segments":   {higherBetter: false, threshold: 1.1, deterministic: true},
	"scan_matches":     {higherBetter: false, threshold: 1.05, deterministic: true},
	"aggregate_models": {higherBetter: false, threshold: 1.05, deterministic: true},
	// Static-analysis pass (huffvet scenario): a full-module load plus all
	// analyzers. Wall time is dominated by source-importing the standard
	// library, which is host- and cache-sensitive, so the gate is loose and
	// same-machine only; the package count is context, not a gate.
	"huffvet_wall_seconds": {higherBetter: false, threshold: 2.5},
	"open_seconds":         {higherBetter: false, threshold: 2.5},
	"point_lookup_seconds": {higherBetter: false, threshold: 2.5},
	"range_scan_seconds":   {higherBetter: false, threshold: 2.5},
	"aggregate_seconds":    {higherBetter: false, threshold: 2.5},
}

// ruleFor resolves the regression policy for a metric: exact rules first,
// then the per-stage wall-time family (stage_<name>_wall_seconds, including
// stage_total_wall_seconds), which is host-noisy — single stages jitter more
// than the end-to-end wall — so it gets the loosest threshold. Stage alloc
// and GC metrics are recorded but not gated: GC timing makes them bimodal.
func ruleFor(m string) (rule, bool) {
	if r, ok := rules[m]; ok {
		return r, true
	}
	if strings.HasPrefix(m, "stage_") && strings.HasSuffix(m, "_wall_seconds") {
		return rule{higherBetter: false, threshold: 2.5}, true
	}
	return rule{}, false
}

// compare gates the new record against the previous one and returns one
// line per regression. With deterministicOnly set, wall-clock metrics are
// exempt — the mode for gating against a baseline from a different
// machine. Metrics or scenarios present on only one side are skipped: the
// gate tracks drift, not coverage.
func compare(prev, next Record, deterministicOnly bool) []string {
	var bad []string
	names := make([]string, 0, len(next.Scenarios))
	for name := range next.Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldM, ok := prev.Scenarios[name]
		if !ok {
			continue
		}
		metrics := make([]string, 0, len(next.Scenarios[name]))
		for m := range next.Scenarios[name] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			r, gated := ruleFor(m)
			old, both := oldM[m]
			if !gated || !both || old == 0 {
				continue
			}
			if deterministicOnly && !r.deterministic {
				continue
			}
			val := next.Scenarios[name][m]
			if r.higherBetter {
				if val < old/r.threshold {
					bad = append(bad, fmt.Sprintf("%s: %s fell %.4g -> %.4g (>%.2gx regression)",
						name, m, old, val, r.threshold))
				}
			} else if val > old*r.threshold {
				bad = append(bad, fmt.Sprintf("%s: %s rose %.4g -> %.4g (>%.2gx regression)",
					name, m, old, val, r.threshold))
			}
		}
	}
	return bad
}

// deltaLines renders the per-metric change of the new record against the
// previous one, one line per metric shared by both records, in deterministic
// order. This is the human-readable trajectory view printed on every run;
// the gate (compare) decides pass/fail separately.
func deltaLines(prev, next Record) []string {
	var lines []string
	names := make([]string, 0, len(next.Scenarios))
	for name := range next.Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldM, ok := prev.Scenarios[name]
		if !ok {
			continue
		}
		metrics := make([]string, 0, len(next.Scenarios[name]))
		for m := range next.Scenarios[name] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			old, both := oldM[m]
			if !both || old == 0 {
				continue
			}
			val := next.Scenarios[name][m]
			lines = append(lines, fmt.Sprintf("delta %s: %s %.4g -> %.4g (%+.1f%%)",
				name, m, old, val, 100*(val-old)/old))
		}
	}
	return lines
}

// slowdowns parses repeated -slow name=factor flags.
type slowdowns map[string]float64

func (s slowdowns) String() string {
	parts := make([]string, 0, len(s))
	for k, v := range s {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (s slowdowns) Set(v string) error {
	name, factor, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want scenario=factor, got %q", v)
	}
	f, err := strconv.ParseFloat(factor, 64)
	if err != nil || f <= 0 {
		return fmt.Errorf("bad factor %q", factor)
	}
	s[name] = f
	return nil
}
