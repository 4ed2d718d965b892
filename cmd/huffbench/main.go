// Command huffbench is the continuous benchmark harness for the attack
// pipeline: it runs a fixed set of end-to-end and micro scenarios, appends
// a timestamped record to BENCH_pipeline.json, and exits nonzero when a
// tracked metric regresses beyond its threshold against the previous
// record. CI runs it on every push and uploads the JSON as an artifact, so
// the file is the pipeline's performance trajectory.
//
// Usage:
//
//	huffbench -out BENCH_pipeline.json
//	huffbench -no-gate            # record a fresh baseline, never fail
//	huffbench -slow attack_smallcnn=2   # gate self-test: injected slowdown
//
// Scenario notes: the heavier end-to-end scenario is a width-scaled
// ResNet-18 rather than VGG-S — a VGG-S geometry solve at the default
// hypothesis space does not finish in CI time; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/huffduff/huffduff/cmd/internal/cli"
	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/converge"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prof"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/sparse"
)

// scenario is one fixed benchmark workload.
type scenario struct {
	name string
	run  func() (Metrics, error)
}

// benchEnv collects per-scenario side artifacts (attributed cost reports,
// convergence ledgers) that do not belong in the gated metric record.
// Scenarios run sequentially, so plain map writes are safe.
type benchEnv struct {
	reports map[string]string // scenario name -> prof report text
	// ledgerDir, when set, receives one <scenario>.ledger.jsonl convergence
	// curve per attack scenario (the -ledger-dir CI artifact).
	ledgerDir string
}

func newBenchEnv() *benchEnv { return &benchEnv{reports: map[string]string{}} }

// writeLedger dumps one scenario's convergence ledger into env.ledgerDir.
func (e *benchEnv) writeLedger(name string, led *converge.Ledger) error {
	if e == nil || e.ledgerDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.ledgerDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(e.ledgerDir, name+".ledger.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	return led.WriteJSONL(f)
}

// hotspotText renders every scenario's attributed cost report in
// deterministic order, for the -hotspots artifact.
func (e *benchEnv) hotspotText() string {
	names := make([]string, 0, len(e.reports))
	for name := range e.reports {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "=== %s ===\n%s\n", name, e.reports[name])
	}
	return sb.String()
}

// attackScenario deploys a pruned victim and measures one full attack:
// host wall time, victim-query count, simulated device time and cycles,
// the size of the recovered solution space, and — via an attached
// obs.Collector feeding internal/prof — the per-stage cost breakdown
// (wall, alloc, GC) that attributes those wall-seconds. The attributed
// report text lands in env.reports for the -hotspots artifact.
func attackScenario(env *benchEnv, name, model string, scale int, keep float64, trials, q int, seed int64) func() (Metrics, error) {
	return func() (Metrics, error) {
		arch, err := models.ByName(model, scale)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		bind, err := arch.Build(rng)
		if err != nil {
			return nil, err
		}
		if keep < 1 {
			prune.GlobalMagnitude(bind.Net.Params(), keep)
		}
		col := obs.NewCollector()
		acfg := accel.DefaultConfig()
		acfg.Seed = seed
		acfg.Obs = col
		m := accel.NewMachine(acfg, arch, bind)

		cfg := attack.DefaultConfig()
		cfg.Probe.Trials = trials
		cfg.Probe.Q = q
		cfg.Probe.Seed = seed
		cfg.Obs = col
		led := converge.NewLedger(col)
		cfg.Ledger = led
		start := time.Now()
		res, err := attack.Attack(m, cfg)
		wall := time.Since(start).Seconds()
		led.Close()
		if err != nil {
			return nil, err
		}
		if err := env.writeLedger(name, led); err != nil {
			return nil, fmt.Errorf("%s: ledger artifact: %w", name, err)
		}
		dev := m.Campaign()
		sum := led.Summary()
		met := Metrics{
			"wall_seconds":   wall,
			"victim_queries": float64(dev.Runs),
			"device_seconds": dev.SimulatedTime,
			"device_cycles":  dev.SimulatedTime * acfg.ClockHz,
			"solution_count": float64(res.Space.Count()),
			// Convergence-ledger metrics: how small the solution space ended
			// up and how many victim queries bought 90% of the collapse.
			"converge_log10_volume_final": sum.FinalLog10Volume,
			"converge_queries_to_90pct":   float64(sum.QueriesTo90Pct),
		}
		rep := prof.BuildReport(col.Metrics(), wall, 12)
		addStageMetrics(met, rep)
		if env != nil {
			env.reports[name] = rep.Text()
		}
		return met, nil
	}
}

// addStageMetrics folds the attributed cost report into the scenario's
// gated metric record: one wall/alloc/GC triple per pipeline stage plus the
// simulator workload measures. Stage names come from the attack pipeline
// (calibrate, probe, solve, geometry, timing, finalize).
func addStageMetrics(m Metrics, rep *prof.Report) {
	for _, s := range rep.Stages {
		m["stage_"+s.Stage+"_wall_seconds"] = s.WallSeconds
		m["stage_"+s.Stage+"_alloc_bytes"] = s.AllocBytes
		m["stage_"+s.Stage+"_gc_cpu_seconds"] = s.GCCPUSeconds
	}
	// The suffix keeps this under the stage_*_wall_seconds prefix rule.
	m["stage_total_wall_seconds"] = rep.StageWallSeconds
	if rep.TraceEvents > 0 {
		m["trace_events"] = rep.TraceEvents
	}
	if rep.WallPerDeviceSecond > 0 {
		m["wall_device_ratio"] = rep.WallPerDeviceSecond
	}
	if rep.SymCells > 0 {
		m["sym_cells"] = rep.SymCells
	}
}

// encodeMicro measures raw encoder throughput: the sparse codecs the
// simulated accelerator uses on its DRAM bus, fed a fixed pseudo-random
// activation tensor at attack-typical density.
func encodeMicro() (Metrics, error) {
	const (
		n       = 1 << 16
		density = 0.3
		iters   = 300
	)
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, n)
	for i := range values {
		if rng.Float64() < density {
			values[i] = rng.NormFloat64()
		}
	}
	codecs := []sparse.Codec{
		sparse.Bitmap{ElemBytes: 1},
		sparse.RLE{ElemBytes: 1, RunBits: 4},
		sparse.CSC{ElemBytes: 1, IndexBits: 4},
	}
	var outBytes int64
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, c := range codecs {
			outBytes += int64(c.Encode(values).Bytes)
		}
	}
	wall := time.Since(start).Seconds()
	encoded := float64(iters * len(codecs) * n)
	return Metrics{
		"wall_seconds":      wall,
		"values_per_second": encoded / wall,
		"bytes_per_second":  float64(outBytes) / wall,
	}, nil
}

func scenarios(env *benchEnv) []scenario {
	return []scenario{
		{"attack_smallcnn", attackScenario(env, "attack_smallcnn", "smallcnn", 1, 0.5, 8, 8, 1)},
		{"attack_resnet18", attackScenario(env, "attack_resnet18", "resnet18", 16, 0.6, 6, 16, 1234)},
		{"encode_micro", encodeMicro},
		{"daemon_restart", daemonRestart},
		{"store_readpath", storeReadpath},
		{"huffvet", huffvetScenario},
	}
}

// runBench executes the scenarios, applies injected slowdowns, appends the
// record to path, and returns the regression report (empty = gate passed).
func runBench(path string, scens []scenario, slow slowdowns, gate, deterministicOnly bool, logf func(string, ...any)) ([]string, error) {
	history, err := loadRecords(path)
	if err != nil {
		return nil, err
	}
	rec := Record{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Scenarios: map[string]Metrics{},
	}
	for _, s := range scens {
		logf("running %s...", s.name)
		start := time.Now()
		m, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if f, ok := slow[s.name]; ok {
			// Self-test hook: pretend the scenario ran f times slower, so
			// the regression gate itself can be exercised end to end.
			m["wall_seconds"] *= f
		}
		rec.Scenarios[s.name] = m
		logf("%s done in %.2fs: %v", s.name, time.Since(start).Seconds(), m)
	}

	if len(history) > 0 {
		for _, line := range deltaLines(history[len(history)-1], rec) {
			logf("%s", line)
		}
	}
	var regressions []string
	if gate && len(history) > 0 {
		regressions = compare(history[len(history)-1], rec, deterministicOnly)
	}
	if err := saveRecords(path, append(history, rec)); err != nil {
		return nil, err
	}
	return regressions, nil
}

func main() {
	cli.Setup()
	slow := slowdowns{}
	var (
		out     = flag.String("out", "BENCH_pipeline.json", "benchmark history file (JSON array, appended)")
		noGate  = flag.Bool("no-gate", false, "record without comparing to the previous record")
		detOnly = flag.Bool("deterministic-only", false,
			"gate only machine-independent metrics (for comparing against a baseline recorded on different hardware)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
		hotspots   = flag.String("hotspots", "", "write the per-scenario attributed cost reports to this file")
		ledgerDir  = flag.String("ledger-dir", "", "write per-scenario convergence ledgers (<scenario>.ledger.jsonl) into this directory")
	)
	flag.Var(slow, "slow", "inject an artificial slowdown, scenario=factor (repeatable; gate self-test)")
	flag.Parse()

	// main exits through os.Exit on the regression path, so the CPU profile
	// is stopped explicitly rather than deferred.
	stopCPU := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		cli.Check(err)
		cli.Check(pprof.StartCPUProfile(f))
		// The stage= / layer= goroutine labels set by internal/prof slice
		// this profile: go tool pprof -tagfocus stage=probe <file>.
		stopCPU = func() {
			pprof.StopCPUProfile()
			cli.Check(f.Close())
		}
	}

	env := newBenchEnv()
	env.ledgerDir = *ledgerDir
	regressions, err := runBench(*out, scenarios(env), slow, !*noGate, *detOnly, log.Printf)
	stopCPU()
	cli.Check(err)

	if *hotspots != "" {
		cli.Check(os.WriteFile(*hotspots, []byte(env.hotspotText()), 0o644))
		log.Printf("hotspot report written to %s", *hotspots)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		cli.Check(err)
		runtime.GC() // settle the heap so the profile shows live objects
		cli.Check(pprof.WriteHeapProfile(f))
		cli.Check(f.Close())
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			log.Printf("REGRESSION %s", r)
		}
		log.Printf("%d metric(s) regressed beyond threshold; record appended to %s", len(regressions), *out)
		os.Exit(1)
	}
	log.Printf("gate passed; record appended to %s", *out)
}
