package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/huffduff/huffduff/internal/accel"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prof"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// attackSpec is one attack workload: a fixed pruned victim and a probe
// configuration. The run's --seed becomes the probe seed (the attacker's
// random probe values); the victim stays the one the workload names.
type attackSpec struct {
	name       string
	model      string
	scale      int
	keep       float64
	trials, q  int
	victimSeed int64
	// sampleEvery picks which queries the traced run keeps for the nn and
	// trace replays (about 200 per attack).
	sampleEvery int
	// mustAdmit makes a space that does not admit the victim's true
	// channels a wrong answer. It holds where the attack recovers the truth
	// today; resnet18_solve does not (see NOTES.md).
	mustAdmit bool
}

// resnet18Solve is huffbench's attack_resnet18 configuration: the solver
// takes most of the CPU.
var resnet18Solve = attackSpec{name: "resnet18_solve", model: "resnet18", scale: 16, keep: 0.6,
	trials: 6, q: 16, victimSeed: 1234, sampleEvery: 2}

// smallcnnProbe is the tier-1 DefaultConfig attack on SmallCNN: 3,074
// victim queries, so victim inference takes most of the CPU.
var smallcnnProbe = attackSpec{name: "smallcnn_probe", model: "smallcnn", scale: 1, keep: 0.5,
	trials: 32, q: 24, victimSeed: 1, sampleEvery: 16, mustAdmit: true}

// setupMin and setupBudget size the set-up timing: a run deploys its
// victim at least setupMin times and until setupBudget has passed, and
// reports the median; many short set-ups are steadier than a few.
const (
	setupMin    = 40
	setupBudget = 1500 * time.Millisecond
)

// victim is one deployed, pruned victim and its ground truth.
type victim struct {
	arch *models.Arch
	bind *models.Binding
	m    *accel.Machine
}

// deploy builds and prunes the victim and places it on a simulated
// accelerator — the workload's set-up.
func (s attackSpec) deploy() (*victim, error) {
	arch, err := models.ByName(s.model, s.scale)
	if err != nil {
		return nil, fmt.Errorf("victim model: %w", err)
	}
	bind, err := arch.Build(rand.New(rand.NewSource(s.victimSeed)))
	if err != nil {
		return nil, fmt.Errorf("build victim: %w", err)
	}
	prune.GlobalMagnitude(bind.Net.Params(), s.keep)
	acfg := accel.DefaultConfig()
	acfg.Seed = s.victimSeed
	return &victim{arch: arch, bind: bind, m: accel.NewMachine(acfg, arch, bind)}, nil
}

func (s attackSpec) config(seed int64) attack.Config {
	cfg := attack.DefaultConfig()
	cfg.Probe.Trials = s.trials
	cfg.Probe.Q = s.q
	cfg.Probe.Seed = seed
	return cfg
}

// outcome is one attack's cost and answer. The answer fields and the
// simulator/solver counters must repeat exactly on identical inputs.
type outcome struct {
	wall, cpu, alloc float64

	queries      int
	log10Sol     float64
	geomExact    float64
	truthAdmit   bool
	deviceCycles float64
	traceEvents  float64
	symExprs     float64

	res *attack.Result
}

// deterministic lists the fields the determinism check compares.
func (o *outcome) deterministic() map[string]float64 {
	return map[string]float64{
		"victim_queries":      float64(o.queries),
		"log10_solutions":     o.log10Sol,
		"geometry_exact_frac": o.geomExact,
		"truth_admitted":      b2f(o.truthAdmit),
		"accel.device_cycles": o.deviceCycles,
		"accel.trace_events":  o.traceEvents,
		"sym.exprs":           o.symExprs,
	}
}

// attackOnce runs one full attack on a freshly deployed victim and checks
// its answer against the victim's architecture. On traced runs ctx carries
// the recorder, so the program's own spans nest under the benchmark's.
func attackOnce(ctx context.Context, env *runEnv, s attackSpec, rep *report) (*outcome, *timedVictim, *victim, error) {
	v, err := s.deploy()
	if err != nil {
		return nil, nil, nil, err
	}
	tv := newTimedVictim(v.m, env, s.sampleEvery)
	cfg := s.config(env.seed)
	runtime.GC() // every attack starts from the same heap
	cpu0, alloc0, start := cpuSeconds(), allocBytes(), time.Now()
	actx, sp := obs.Start(ctx, "bench.attack")
	res, err := attack.AttackContext(actx, tv, cfg)
	sp.End()
	o := &outcome{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0, alloc: allocBytes() - alloc0}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("attack: %w", err)
	}
	camp := v.m.Campaign()
	o.res = res
	o.queries = camp.Runs
	o.log10Sol = math.Log10(float64(res.Space.Count()))
	o.deviceCycles = camp.SimulatedTime * v.m.Cfg.ClockHz
	o.traceEvents = float64(camp.TraceReadEvents + camp.TraceWriteEvents)
	o.symExprs = float64(res.Probe.Sym.Exprs)
	o.geomExact, o.truthAdmit = checkTruth(v.arch, res, rep)
	if s.mustAdmit && !o.truthAdmit {
		rep.problem("the solution space no longer admits %s's true channel counts", s.model)
	}
	return o, tv, v, nil
}

// checkTruth compares the recovered answer with the victim: graph node i+1
// is arch unit i (node 0 is the attacker's input), as SolutionSpace.Admits
// assumes. It returns the fraction of conv units whose recovered geometry
// is exact and whether the space admits the true channel counts. The
// solver's one-sided error (§5.4) means the true geometry must always be
// among the node's candidates; a violation is a wrong answer.
func checkTruth(arch *models.Arch, res *attack.Result, rep *report) (geomExact float64, admitted bool) {
	convs := arch.ConvUnits()
	chans := map[int]int{}
	exact := 0
	for _, u := range convs {
		node := u + 1
		unit := arch.Units[u]
		want := attack.Geom{Kernel: unit.Kernel, Stride: unit.Stride, Pool: unit.Pool}
		if node >= len(res.Graph.Nodes) || res.Graph.Nodes[node].Kind != attack.NodeConv {
			rep.problem("graph node %d is not the conv unit %s", node, unit.Name)
			continue
		}
		chans[node] = unit.OutC
		if res.Probe.Geoms[node] == want {
			exact++
		}
		found := false
		for _, g := range res.Probe.Candidates[node] {
			found = found || g == want
		}
		if !found && res.Probe.Geoms[node] != want {
			rep.problem("true geometry %+v of %s is not among node %d's candidates %v", want, unit.Name, node, res.Probe.Candidates[node])
		}
	}
	return float64(exact) / float64(len(convs)), res.Space.Admits(chans)
}

// resumed is the answer re-derived from recorded probe data.
type resumed struct {
	space *attack.SolutionSpace
	pr    *attack.ProbeResult
	// solveSeconds is the wall time of the ProbeData.Solve call alone.
	solveSeconds float64
}

// resume re-derives the solution space from the attack's recorded probe
// data without touching the victim again: solve, spatial propagation, the
// timing channel and finalization. It is the attack workloads' restart.
func resume(ctx context.Context, s attackSpec, seed int64, o *outcome) (*resumed, error) {
	cfg := s.config(seed)
	data, g := o.res.Data, o.res.Graph
	_, sp := obs.Start(ctx, "solve.call")
	start := time.Now()
	pr, err := data.Solve(s.trials)
	solveSeconds := time.Since(start).Seconds()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("resume solve: %w", err)
	}
	dims, err := attack.PropagateDims(g, pr, cfg.Finalize.InH)
	if err != nil {
		return nil, fmt.Errorf("resume dims: %w", err)
	}
	tm, err := attack.TimingChannelFromSamples(g, dims, data.Enc, cfg.TimingTolerance)
	if err != nil {
		return nil, fmt.Errorf("resume timing: %w", err)
	}
	space, err := attack.Finalize(g, pr, dims, tm, cfg.Finalize)
	if err != nil {
		return nil, fmt.Errorf("resume finalize: %w", err)
	}
	return &resumed{space: space, pr: pr, solveSeconds: solveSeconds}, nil
}

// checkResume requires the resumed answer to equal the attack's.
func checkResume(o *outcome, r *resumed, rep *report) {
	space, pr := r.space, r.pr
	if space.Count() != o.res.Space.Count() || space.K1Min != o.res.Space.K1Min || space.K1Max != o.res.Space.K1Max ||
		!attack.SameGeometry(pr, o.res.Probe) || pr.Sym.Exprs != o.res.Probe.Sym.Exprs {
		rep.failOp("resumed answer (%d solutions, k1 [%d,%d], %d exprs) differs from the attack's (%d, [%d,%d], %d)",
			space.Count(), space.K1Min, space.K1Max, pr.Sym.Exprs,
			o.res.Space.Count(), o.res.Space.K1Min, o.res.Space.K1Max, o.res.Probe.Sym.Exprs)
	}
}

// runAttackWorkload times set-up, then runs cycles of one attack and one
// resume of that attack from its probe data. A new cycle starts only while
// it is expected (from the last cycle's length) to end within --seconds, so
// a run lasts about --seconds whatever the host's speed, and always at
// least one cycle. Attacks and resumes alternate so that a stretch of host
// contention falls on both alike, and each is reported as its median.
func runAttackWorkload(env *runEnv, s attackSpec) (*report, error) {
	rep := newReport()
	var setups []float64
	for t0 := time.Now(); len(setups) < setupMin || time.Since(t0) < setupBudget; {
		runtime.GC()
		c0 := cpuSeconds()
		if _, err := s.deploy(); err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	rep.metrics["setup_s"] = median(setups)
	ctx := context.Background()

	var (
		outs                  []*outcome
		cpu, latency          []float64 // per victim query
		resumeCPU, resumeWall []float64
		cycle                 time.Duration
		budget                = time.Duration(env.seconds * float64(time.Second))
	)
	start := time.Now()
	for len(outs) == 0 || time.Since(start)+cycle <= budget {
		cstart := time.Now()
		rep.attempted++
		o, tv, _, err := attackOnce(ctx, env, s, rep)
		if err != nil {
			rep.failOp("%v", err)
			if rep.failed > 2 {
				return nil, err
			}
			continue
		}
		outs = append(outs, o)
		cpu, latency = append(cpu, tv.cpu...), append(latency, tv.latency...)

		rep.attempted++
		runtime.GC()
		rcpu, rstart := cpuSeconds(), time.Now()
		r, err := resume(ctx, s, env.seed, o)
		rcpu, rwall := cpuSeconds()-rcpu, time.Since(rstart).Seconds()
		if err != nil {
			rep.failOp("%v", err)
		} else {
			checkResume(o, r, rep)
			resumeCPU, resumeWall = append(resumeCPU, rcpu), append(resumeWall, rwall)
		}
		cycle = time.Since(cstart)
	}
	loopWall := time.Since(start).Seconds()
	if len(resumeCPU) == 0 {
		return nil, errors.New("no resume succeeded")
	}
	last := outs[len(outs)-1]
	checkDeterminism(env, s.name, outs, rep)

	var walls, cpus, allocs []float64
	for _, o := range outs {
		walls = append(walls, o.wall)
		cpus = append(cpus, o.cpu)
		allocs = append(allocs, o.alloc)
	}
	m := rep.metrics
	m["attack_cpu_s"] = median(cpus)
	m["alloc_bytes"] = median(allocs)
	m["victim_queries"] = float64(last.queries)
	m["log10_solutions"] = last.log10Sol
	m["geometry_exact_frac"] = last.geomExact
	m["read_cpu_p50_ms"] = 1e3 * quantile(cpu, 0.50)
	m["read_cpu_mean_ms"] = 1e3 * mean(cpu)
	m["cpu.read_p99_ms"] = 1e3 * quantile(cpu, 0.99)
	m["restart_cpu_s"] = median(resumeCPU)
	m["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	m["wall.attack_s"] = median(walls)
	m["wall.campaigns_per_s"] = float64(len(outs)) / loopWall
	m["wall.read_p50_ms"] = 1e3 * quantile(latency, 0.50)
	m["wall.read_p99_ms"] = 1e3 * quantile(latency, 0.99)
	m["wall.restart_s"] = median(resumeWall)
	rep.note("%d attack(s) and resume(s); truth_admitted=%v geometry_exact=%.3f solutions=%d sym.exprs=%d",
		len(outs), last.truthAdmit, last.geomExact, last.res.Space.Count(), last.res.Probe.Sym.Exprs)
	noteUnbounded(rep)

	if env.traced {
		return rep, tracedAttack(ctx, env, s, rep, outs[0])
	}
	return rep, nil
}

// checkDeterminism compares every attack's answer and simulator/solver
// counters with the first attack of this run and with the first run on
// this seed of the same build (kept under the artifact directory, keyed by
// the benchmark binary's hash, so a record written by one source tree is
// never checked against another). Every mismatch counts as a failed
// operation.
func checkDeterminism(env *runEnv, workload string, outs []*outcome, rep *report) {
	first := outs[0].deterministic()
	if build, err := buildHash(); err != nil {
		rep.note("no cross-run determinism check: %v", err)
	} else {
		checkRecord(filepath.Join(outDir, fmt.Sprintf("%s.seed%d.%s.expect.json", workload, env.seed, build)), env.seed, first, rep)
	}
	for i, o := range outs[1:] {
		d := o.deterministic()
		for _, k := range sortedKeys(first) {
			if !sameBits(d[k], first[k]) {
				rep.failOp("attack %d: %s = %v, attack 1 gave %v", i+2, k, d[k], first[k])
			}
		}
	}
}

// checkRecord compares got with the record at path, or writes got there
// when this is the first run that reaches it.
func checkRecord(path string, seed int64, got map[string]float64, rep *report) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if raw, err = json.Marshal(got); err == nil {
			err = os.WriteFile(path, raw, 0o644)
		}
		if err != nil {
			rep.note("cannot record determinism baseline: %v", err)
		}
		return
	}
	var prev map[string]float64
	if err := json.Unmarshal(raw, &prev); err != nil {
		rep.note("unreadable determinism record %s: %v", path, err)
		return
	}
	for _, k := range sortedKeys(got) {
		if !sameBits(prev[k], got[k]) {
			rep.failOp("%s = %v, an earlier run of this build on seed %d gave %v", k, got[k], seed, prev[k])
		}
	}
}

// buildHash names the benchmark binary's build: the first 12 hex digits of
// its SHA-256. The binary links every package the workloads run, so two
// source trees that differ in any of them hash differently.
func buildHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// tracedAttack repeats the attack with spans recorded around every layer
// call, replays the sampled queries through nn and trace, and reports the
// per-layer metrics. untraced is the run's first attack, for the tracing
// overhead.
func tracedAttack(ctx context.Context, env *runEnv, s attackSpec, rep *report, untraced *outcome) error {
	col := obs.NewCollector()
	tctx := obs.WithRecorder(ctx, col)
	o, tv, v, err := attackOnce(tctx, env, s, rep)
	if err != nil {
		return err
	}
	d, want := o.deterministic(), untraced.deterministic()
	for _, k := range sortedKeys(want) {
		if !sameBits(d[k], want[k]) {
			rep.failOp("traced attack: %s = %v, the untraced attack gave %v", k, d[k], want[k])
		}
	}
	m := rep.metrics
	m["trace_overhead_frac"] = o.cpu/untraced.cpu - 1
	m["truth.admitted"] = b2f(o.truthAdmit)

	// Pipeline stages, from the program's own prof stage spans.
	for _, st := range prof.BuildReport(col.Metrics(), o.wall, 0).Stages {
		switch st.Stage {
		case "calibrate", "probe", "solve", "finalize":
			m["huffduff."+st.Stage+"_s"] = st.WallSeconds
		}
		if st.Stage == "probe" || st.Stage == "solve" {
			m["huffduff."+st.Stage+"_alloc_bytes"] = st.AllocBytes
		}
	}

	// accel, measured by the victim wrapper.
	camp := v.m.Campaign()
	m["accel.run_s"], m["accel.run_cpu_s"] = sum(tv.latency), sum(tv.cpu)
	m["accel.runs"] = float64(camp.Runs)
	m["accel.trace_events"] = o.traceEvents
	m["accel.dense_macs"] = camp.DenseMACs
	m["accel.effectual_macs"] = camp.EffectualMACs
	m["accel.device_cycles"] = o.deviceCycles
	if camp.DenseMACs > 0 {
		m["accel.effectual_frac"] = camp.EffectualMACs / camp.DenseMACs
	}

	// solve: an outside call on the traced attack's data.
	r, err := resume(tctx, s, env.seed, o)
	if err != nil {
		return err
	}
	m["solve.call_s"] = r.solveSeconds
	checkResume(o, r, rep)
	pr := r.pr
	m["sym.exprs"] = float64(pr.Sym.Exprs)
	m["sym.hits"] = float64(pr.Sym.Hits)
	m["sym.misses"] = float64(pr.Sym.Misses)
	m["sym.hit_rate"] = pr.Sym.HitRate()

	units := replayNN(tctx, v, tv.images)
	per := float64(len(tv.images))
	total := 0.0
	for _, u := range units {
		total += u.seconds
		if u.reported {
			m["nn."+s.model+"."+u.name+".forward_s"] = u.seconds / per
			m["nn."+s.model+"."+u.name+".dense_macs"] = u.denseMACs / per
		}
	}
	m["nn.forward_s"] = total / per

	_, sp := obs.Start(tctx, "trace.analyze")
	astart := time.Now()
	for _, tr := range tv.traces {
		if _, err := trace.Analyze(tr); err != nil {
			sp.End()
			return fmt.Errorf("trace replay: %w", err)
		}
	}
	m["trace.analyze_s"] = time.Since(astart).Seconds() / float64(len(tv.traces))
	sp.End()

	if err := writeLayerTable(env, s, units, tv, camp.Runs); err != nil {
		return err
	}
	return writeSpans(env, s.name, col, m)
}

// unitCost is one victim unit's replayed host cost.
type unitCost struct {
	name      string
	reported  bool // conv and linear units get per-unit metrics
	seconds   float64
	denseMACs float64
}

// replayNN re-runs the sampled probe images through the victim network one
// node at a time — Network.Nodes[i].Layer.Forward, and the residual sums
// Network.Forward computes itself — and charges each node's host time and
// dense MACs to the arch unit it belongs to.
func replayNN(ctx context.Context, v *victim, images []*tensor.Tensor) []unitCost {
	net := v.bind.Net
	units := make([]unitCost, len(v.arch.Units))
	owner := make([]int, len(net.Nodes))
	for j := range owner {
		owner[j] = -1
	}
	for i, u := range v.arch.Units {
		units[i].name = u.Name
		units[i].reported = u.Kind == models.UnitConv || u.Kind == models.UnitLinear
		lo := 1
		if i > 0 {
			lo = v.bind.UnitOut[i-1] + 1
		}
		for j := lo; j <= v.bind.UnitOut[i]; j++ {
			owner[j] = i
		}
	}
	outs := make([]*tensor.Tensor, len(net.Nodes))
	for _, img := range images {
		_, sp := obs.Start(ctx, "nn.forward")
		x := img
		if x.NumDims() == 3 {
			x = x.Reshape(1, x.Dim(0), x.Dim(1), x.Dim(2))
		}
		for j, n := range net.Nodes {
			start := time.Now()
			switch n.Kind {
			case nn.KindInput:
				outs[j] = x
			case nn.KindLayer:
				outs[j] = n.Layer.Forward(outs[n.In[0]], false)
			case nn.KindAdd:
				s := outs[n.In[0]].Add(outs[n.In[1]])
				if n.ReLUAfterAdd {
					for k, val := range s.Data {
						if val < 0 {
							s.Data[k] = 0
						}
					}
				}
				outs[j] = s
			}
			if u := owner[j]; u >= 0 {
				units[u].seconds += time.Since(start).Seconds()
				units[u].denseMACs += denseMACs(n.Layer, outs[j])
			}
		}
		sp.End()
	}
	return units
}

// denseMACs is a conv or linear layer's multiply-accumulate count for one
// forward pass producing out.
func denseMACs(l nn.Layer, out *tensor.Tensor) float64 {
	switch l := l.(type) {
	case *nn.Conv2D:
		g := l.Groups
		if g < 1 {
			g = 1
		}
		return float64(out.Size()) * float64(l.InC/g) * float64(l.Kernel*l.Kernel)
	case *nn.Linear:
		return float64(l.In) * float64(out.Size())
	}
	return 0
}

// layerRow is one line of the per-victim-layer table artifact.
type layerRow struct {
	Unit          string  `json:"unit"`
	HostSeconds   float64 `json:"host_seconds_per_query"`
	DenseMACs     float64 `json:"dense_macs_per_query"`
	AccelDense    float64 `json:"accel_dense_macs_per_query"`
	EffectualFrac float64 `json:"effectual_frac"`
}

// writeLayerTable writes the per-victim-layer table: host seconds and dense
// MACs per query from the nn replay, and the effectual fraction the
// simulator counted over the whole traced attack.
func writeLayerTable(env *runEnv, s attackSpec, units []unitCost, tv *timedVictim, runs int) error {
	var rows []layerRow
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %14s %16s %16s %10s\n", "unit", "host s/query", "dense MAC/query", "accel MAC/query", "effectual")
	for i, u := range units {
		if !u.reported {
			continue
		}
		r := layerRow{Unit: u.name, AccelDense: tv.dense[i] / float64(runs)}
		if n := float64(len(tv.images)); n > 0 {
			r.HostSeconds, r.DenseMACs = u.seconds/n, u.denseMACs/n
		}
		if tv.dense[i] > 0 {
			r.EffectualFrac = tv.eff[i] / tv.dense[i]
		}
		rows = append(rows, r)
		fmt.Fprintf(&sb, "%-8s %14.3g %16.0f %16.0f %10.3f\n", r.Unit, r.HostSeconds, r.DenseMACs, r.AccelDense, r.EffectualFrac)
	}
	raw, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return fmt.Errorf("layer table: %w", err)
	}
	base := filepath.Join(outDir, s.name)
	if err := os.WriteFile(base+".layers.json", raw, 0o644); err != nil {
		return fmt.Errorf("layer table: %w", err)
	}
	if err := os.WriteFile(base+".layers.txt", []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("layer table: %w", err)
	}
	return nil
}
