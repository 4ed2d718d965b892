// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time, checks the attack's answer against the victim it built,
// and prints every metric declared in BENCHMARK.json as one JSON line:
//
//	bash perfbench/run.sh --workload resnet18_solve --seed 1 --seconds 40 --trace 0
//
// Workloads (see perfbench/NOTES.md for why each exists):
//
//	resnet18_solve  full attack on a pruned ResNet-18; the solver dominates
//	smallcnn_probe  full attack on SmallCNN at T=32; victim inference dominates
//	daemon_mixed    campaign daemon under two HTTP clients, then kill and restart
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run repeats its work with spans recorded around every call into a
// layer and reports the per-layer metrics instead, writing the Chrome trace
// and per-layer tables under perfbench/out/. --slow injects extra CPU into
// one layer's calls, for the benchmark's slowdown self-test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifestMetric is one metric declaration in BENCHMARK.json.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report.
type manifest struct {
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

// runEnv is what every workload receives.
type runEnv struct {
	seed    int64
	seconds float64
	traced  bool
	slow    slowdown
}

// report is what a workload measured. Correctness problems make the run
// incorrect; failed counts operations that errored or disagreed with an
// earlier identical one.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// problem records a wrong answer: the run is reported as incorrect.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failOp records one failed operation.
func (r *report) failOp(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, "failed: "+fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runEnv) (*report, error){
	"resnet18_solve": func(env *runEnv) (*report, error) { return runAttackWorkload(env, resnet18Solve) },
	"smallcnn_probe": func(env *runEnv) (*report, error) { return runAttackWorkload(env, smallcnnProbe) },
	"daemon_mixed":   runDaemonWorkload,
}

// outDir receives the artifacts: traces, layer tables, determinism records
// and the daemon's data directories while it runs.
const outDir = "perfbench/out"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: resnet18_solve, smallcnn_probe or daemon_mixed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		slowFlag = flag.String("slow", "", "self-test: inject extra CPU into one layer's calls, as layer=factor (accel=1.3 or store.list=1.3)")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	slow, err := parseSlowdown(*slowFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	env := &runEnv{seed: *seed, seconds: *seconds, traced: *trace == 1, slow: slow}
	rep, err := wl(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	declared := man.EndToEnd
	if env.traced {
		declared = man.PerLayer
	}
	res, err := assemble(rep, declared, !env.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: INCORRECT: %s\n", *name, p)
	}
	printTable(*name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// assemble builds the result line from the declared metric list. With
// strict set (end-to-end metrics) every declared metric must have been
// measured and be finite; per-layer metrics a workload does not touch read
// 0, because that layer did no work in it.
func assemble(rep *report, declared []manifestMetric, strict bool) (*result, error) {
	res := &result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	for _, d := range declared {
		v, ok := rep.metrics[d.Name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printTable writes every metric by name, value and unit to stderr.
func printTable(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "== %s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "   %-34s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}

// slowdown is the self-test's injected cost: every call into the named
// layer burns (factor-1) times its own duration in extra CPU.
type slowdown struct {
	layer  string
	factor float64
}

func parseSlowdown(s string) (slowdown, error) {
	if s == "" {
		return slowdown{}, nil
	}
	layer, f, ok := strings.Cut(s, "=")
	factor, err := strconv.ParseFloat(f, 64)
	if !ok || err != nil || factor < 1 {
		return slowdown{}, fmt.Errorf("-slow %q: want layer=factor with factor >= 1", s)
	}
	if layer != "accel" && layer != "store.list" {
		return slowdown{}, fmt.Errorf("-slow %q: layer must be accel or store.list", s)
	}
	return slowdown{layer: layer, factor: factor}, nil
}
