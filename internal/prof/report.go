package prof

import (
	"fmt"
	"sort"
	"strings"

	"github.com/huffduff/huffduff/internal/obs"
)

// StageCost is one pipeline stage's attributed resource bill.
type StageCost struct {
	Stage        string  `json:"stage"`
	WallSeconds  float64 `json:"wall_seconds"`
	Spans        uint64  `json:"spans"`
	AllocBytes   float64 `json:"alloc_bytes"`
	GCCycles     float64 `json:"gc_cycles"`
	GCCPUSeconds float64 `json:"gc_cpu_seconds"`
}

// CounterCost is one counter series in the top-N list.
type CounterCost struct {
	Series string  `json:"series"`
	Value  float64 `json:"value"`
}

// Report is the top-N attributed cost breakdown of one instrumented run:
// where the wall-seconds went stage by stage, how the host/device clocks
// relate, what the hot loops did, and which counters dominated.
type Report struct {
	// WallSeconds is the caller-measured end-to-end host wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// StageWallSeconds sums the per-stage wall times (the attribution
	// coverage: close to WallSeconds when the stages account for the run).
	StageWallSeconds float64 `json:"stage_wall_seconds"`
	// DeviceSeconds is the simulated device time (accel.simulated_seconds).
	DeviceSeconds float64 `json:"device_seconds"`
	// WallPerDeviceSecond is the simulator slowdown: host seconds burned per
	// simulated device second (the ratio the 10x fast-path work must cut).
	WallPerDeviceSecond float64 `json:"wall_per_device_second"`
	// TraceEvents counts simulated DRAM events; EventsPerSecond is the
	// host-side simulation rate.
	TraceEvents     float64 `json:"trace_events"`
	EventsPerSecond float64 `json:"events_per_second"`
	// VictimRuns / VictimRunSeconds / VictimRunMaxSeconds summarize the
	// victim-query cost histogram.
	VictimRuns          uint64  `json:"victim_runs"`
	VictimRunSeconds    float64 `json:"victim_run_seconds"`
	VictimRunMaxSeconds float64 `json:"victim_run_max_seconds"`
	// SymCells is the number of symbolic cells the full-trial solve
	// evaluated (0 when no solve ran).
	SymCells float64 `json:"sym_cells"`
	// Stages is the per-stage bill, descending by wall time.
	Stages []StageCost `json:"stages"`
	// TopCounters is the N largest counter series, descending by value.
	TopCounters []CounterCost `json:"top_counters"`
}

// seriesName splits a snapshot key of the form name{label} into its parts.
func seriesName(key string) (name, label string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// labelValue extracts v from a "k=v" label whose key matches k.
func labelValue(label, k string) (string, bool) {
	for _, part := range strings.Split(label, ",") {
		if key, v, ok := strings.Cut(part, "="); ok && key == k {
			return v, true
		}
	}
	return "", false
}

// BuildReport assembles the attributed cost report from a metrics snapshot
// and the caller's end-to-end wall measurement. topN bounds the counter
// list (<=0 selects 10). The snapshot is the one obs.Collector.Metrics()
// returns; every derived quantity degrades to zero when its series is
// absent, so the report works on partially instrumented runs.
func BuildReport(snap obs.MetricsSnapshot, wallSeconds float64, topN int) *Report {
	if topN <= 0 {
		topN = 10
	}
	r := &Report{WallSeconds: wallSeconds}

	// Per-stage bill: wall from the stage.seconds histograms, resources from
	// the prof.stage.* counters.
	byStage := map[string]*StageCost{}
	stageOf := func(label string) *StageCost {
		v, ok := labelValue(label, "stage")
		if !ok {
			return nil
		}
		sc := byStage[v]
		if sc == nil {
			sc = &StageCost{Stage: v}
			byStage[v] = sc
		}
		return sc
	}
	for key, h := range snap.Histograms {
		name, label := seriesName(key)
		switch name {
		case "stage.seconds":
			if sc := stageOf(label); sc != nil {
				sc.WallSeconds += h.Sum
				sc.Spans += h.Count
			}
		case "victim.run_seconds":
			r.VictimRuns += h.Count
			r.VictimRunSeconds += h.Sum
			if h.Max > r.VictimRunMaxSeconds {
				r.VictimRunMaxSeconds = h.Max
			}
		}
	}
	for key, v := range snap.Counters {
		name, label := seriesName(key)
		switch name {
		case "prof.stage.alloc_bytes":
			if sc := stageOf(label); sc != nil {
				sc.AllocBytes += v
			}
		case "prof.stage.gc_cycles":
			if sc := stageOf(label); sc != nil {
				sc.GCCycles += v
			}
		case "prof.stage.gc_cpu_seconds":
			if sc := stageOf(label); sc != nil {
				sc.GCCPUSeconds += v
			}
		case "accel.simulated_seconds":
			r.DeviceSeconds += v
		case "accel.trace_events":
			r.TraceEvents += v
		}
	}
	for _, sc := range byStage {
		r.StageWallSeconds += sc.WallSeconds
		r.Stages = append(r.Stages, *sc)
	}
	sort.Slice(r.Stages, func(i, j int) bool {
		if r.Stages[i].WallSeconds != r.Stages[j].WallSeconds {
			return r.Stages[i].WallSeconds > r.Stages[j].WallSeconds
		}
		return r.Stages[i].Stage < r.Stages[j].Stage
	})
	if r.DeviceSeconds > 0 {
		r.WallPerDeviceSecond = r.WallSeconds / r.DeviceSeconds
	}
	if r.WallSeconds > 0 {
		r.EventsPerSecond = r.TraceEvents / r.WallSeconds
	}

	// Solver work: the gauges are labelled per solve schedule step
	// (trials=N); report the largest, which is the full-trial solve.
	for key, v := range snap.Gauges {
		name, _ := seriesName(key)
		switch name {
		case "sym.cells":
			if v > r.SymCells {
				r.SymCells = v
			}
		}
	}

	// Top-N counters by value.
	counters := make([]CounterCost, 0, len(snap.Counters))
	for key, v := range snap.Counters {
		counters = append(counters, CounterCost{Series: key, Value: v})
	}
	sort.Slice(counters, func(i, j int) bool {
		if counters[i].Value != counters[j].Value {
			return counters[i].Value > counters[j].Value
		}
		return counters[i].Series < counters[j].Series
	})
	if len(counters) > topN {
		counters = counters[:topN]
	}
	r.TopCounters = counters
	return r
}

// Text renders the report as a fixed-width table for humans and CI
// artifacts. Output order is deterministic.
func (r *Report) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "attributed cost report: %.2fs wall", r.WallSeconds)
	if r.WallSeconds > 0 {
		fmt.Fprintf(&sb, " (stages cover %.1f%%)", 100*r.StageWallSeconds/r.WallSeconds)
	}
	sb.WriteByte('\n')
	if r.DeviceSeconds > 0 {
		fmt.Fprintf(&sb, "simulator: %.4fs device time, %.0fx wall/device, %.0f trace events (%.0f events/s)\n",
			r.DeviceSeconds, r.WallPerDeviceSecond, r.TraceEvents, r.EventsPerSecond)
	}
	if r.VictimRuns > 0 {
		fmt.Fprintf(&sb, "victim queries: %d runs, %.2fs total (avg %.2fms, max %.2fms)\n",
			r.VictimRuns, r.VictimRunSeconds,
			1e3*r.VictimRunSeconds/float64(r.VictimRuns), 1e3*r.VictimRunMaxSeconds)
	}
	if r.SymCells > 0 {
		fmt.Fprintf(&sb, "sym solver: %.0f cells evaluated\n", r.SymCells)
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(&sb, "%-12s %10s %7s %12s %9s %9s\n",
			"stage", "wall (s)", "% wall", "alloc (MB)", "gc cycles", "gc cpu(s)")
		for _, s := range r.Stages {
			pct := 0.0
			if r.WallSeconds > 0 {
				pct = 100 * s.WallSeconds / r.WallSeconds
			}
			fmt.Fprintf(&sb, "%-12s %10.3f %6.1f%% %12.1f %9.0f %9.3f\n",
				s.Stage, s.WallSeconds, pct, s.AllocBytes/(1<<20), s.GCCycles, s.GCCPUSeconds)
		}
	}
	if len(r.TopCounters) > 0 {
		fmt.Fprintf(&sb, "top counters:\n")
		for _, c := range r.TopCounters {
			fmt.Fprintf(&sb, "  %-48s %16.6g\n", c.Series, c.Value)
		}
	}
	return sb.String()
}
