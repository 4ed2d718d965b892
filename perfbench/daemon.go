package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/store"
	"github.com/huffduff/huffduff/internal/telemetry"
)

const (
	// corpusCampaigns sizes the stored history the daemon starts with.
	corpusCampaigns = 3000
	// daemonSetupRepeats is how many times a run seeds and starts a
	// daemon to time set-up; the last one serves the load.
	daemonSetupRepeats = 9
	// restartRepeats is how many kill-and-reopen cycles a run times.
	restartRepeats = 5
	// clients is the number of closed-loop clients of the HTTP handler.
	clients = 2
	// pollThink is each client's pause between two rounds of reads, its
	// poll interval. Each round polls the campaign, lists one filtered page
	// of the history and reads the per-model aggregate.
	pollThink = 20 * time.Millisecond
)

// campaignSpec is every client's job: a small SmallCNN attack.
var campaignSpec = telemetry.JobSpec{Model: "smallcnn", Trials: 2, Q: 6, Seed: 1}

// corpusStart is when the seeded history begins; campaign i finished about
// i minutes later.
var corpusStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// corpusModels are the model names of the seeded history.
var corpusModels = []string{"smallcnn", "vggs", "resnet18", "alexnet", "mobilenetv2"}

// seedCorpus writes a synthetic terminal history of corpusCampaigns
// campaigns, drawn from the run's seed, into a fresh store directory.
func seedCorpus(dir string, seed int64) error {
	s, err := store.Open(dir, store.SegmentConfig{SegmentBytes: 256 << 10, CompactAfter: -1, NoSync: true})
	if err != nil {
		return fmt.Errorf("seed corpus: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for id := 1; id <= corpusCampaigns; id++ {
		model := corpusModels[rng.Intn(len(corpusModels))]
		state := telemetry.StateDone
		if rng.Float64() < 0.1 {
			state = telemetry.StateFailed
		}
		started := corpusStart.Add(time.Duration(id) * time.Minute)
		finished := started.Add(time.Duration(1+rng.Intn(60)) * time.Second)
		snap := telemetry.CampaignSnapshot{
			ID: id, Spec: telemetry.JobSpec{Model: model, Trials: 8, Q: 8, Seed: int64(id)},
			State: state, Submitted: started, Started: &started, Finished: &finished, Attempts: 1,
			VictimQueries: 200 + rng.Intn(2000), SolutionCount: 1 + rng.Intn(50),
		}
		payload, err := json.Marshal(snap)
		if err != nil {
			return fmt.Errorf("seed corpus: %w", err)
		}
		rec := store.CampaignRecord{
			ID: id, Model: model, State: state, FinishedNS: finished.UnixNano(),
			WallSeconds: finished.Sub(started).Seconds(), Queries: int64(snap.VictimQueries), Payload: payload,
		}
		if err := s.PutCampaign(rec); err != nil {
			return fmt.Errorf("seed corpus: %w", err)
		}
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("seed corpus: %w", err)
	}
	return nil
}

// service is one running daemon: journal, fsync'd store, one worker, and
// the HTTP handler the clients call.
type service struct {
	dir     string
	journal *telemetry.Journal
	seg     *store.Segment
	st      *timedStore
	d       *telemetry.Daemon
	handler http.Handler
	phases  [3]float64 // journal open, store open, daemon start (seconds)
}

// startService opens the journal and store under dir and starts a daemon
// serving them. col, when set, receives the daemon's spans and metrics.
func startService(ctx context.Context, dir string, env *runEnv, col *obs.Collector) (*service, error) {
	sv := &service{dir: dir}
	t0 := time.Now()
	_, sp := obs.Start(ctx, "telemetry.journal_open")
	j, err := telemetry.OpenJournal(filepath.Join(dir, "journal"), telemetry.JournalConfig{})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	t1 := time.Now()
	_, sp = obs.Start(ctx, "store.open")
	seg, err := store.Open(filepath.Join(dir, "store"), store.SegmentConfig{SegmentBytes: 256 << 10, CompactAfter: -1})
	sp.End()
	if err != nil {
		_ = j.Close() // the open error is the one to report
		return nil, fmt.Errorf("open store: %w", err)
	}
	t2 := time.Now()
	sv.journal, sv.seg = j, seg
	sv.st = newTimedStore(seg, obs.RecorderFrom(ctx), env)
	cfg := telemetry.DaemonConfig{Workers: 1, QueueDepth: clients, Journal: j, Store: sv.st}
	if col != nil {
		cfg.Recorder = col
	}
	_, sp = obs.Start(ctx, "telemetry.daemon_start")
	sv.d = telemetry.NewDaemon(cfg)
	sp.End()
	sv.phases = [3]float64{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()}
	sv.handler = telemetry.NewServer(telemetry.ServerOptions{
		Campaigns: sv.d, Submitter: sv.d, Health: sv.d, Progress: sv.d, DisablePprof: true,
	}).Handler()
	return sv, nil
}

// kill simulates a crash of the daemon and closes the journal and store so
// the directory can be reopened.
func (sv *service) kill() error {
	sv.d.Kill()
	return errors.Join(sv.journal.Close(), sv.seg.Close())
}

// client is one closed-loop client calling the daemon's HTTP handler.
type client struct {
	handler http.Handler
	rng     *rand.Rand
	ctx     context.Context
	// readCPU and readWall are the handler's thread CPU and wall seconds
	// per read request.
	readCPU, readWall []float64
	ids               []int
	errs              []error
	requests          int
}

func newClient(h http.Handler, seed int64, ctx context.Context) *client {
	return &client{handler: h, rng: rand.New(rand.NewSource(seed)), ctx: ctx}
}

// do serves one request through the handler on this goroutine, locked to
// its thread so the thread's CPU clock prices exactly the handler's work,
// and decodes a 2xx JSON answer into out.
func (c *client) do(method, path string, body io.Reader, out any) (cpu, wall float64, err error) {
	c.requests++
	_, sp := obs.Start(c.ctx, "http."+method)
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	runtime.LockOSThread()
	c0, w0 := threadCPU(), time.Now()
	c.handler.ServeHTTP(rec, req)
	cpu, wall = threadCPU()-c0, time.Since(w0).Seconds()
	runtime.UnlockOSThread()
	sp.End()
	if rec.Code/100 != 2 {
		return cpu, wall, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		return cpu, wall, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return cpu, wall, nil
}

// read issues one GET and records its cost.
func (c *client) read(path string, out any) error {
	cpu, wall, err := c.do(http.MethodGet, path, nil, out)
	c.readCPU = append(c.readCPU, cpu)
	c.readWall = append(c.readWall, wall)
	return err
}

// listing draws one filtered page of the history: by model and state, by
// state and finish time, or by model alone.
func (c *client) listing() string {
	model := corpusModels[c.rng.Intn(len(corpusModels))]
	switch c.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("/campaigns?model=%s&state=done&limit=20&offset=%d", model, c.rng.Intn(200))
	case 1:
		since := corpusStart.Add(time.Duration(c.rng.Intn(corpusCampaigns)) * time.Minute).UnixNano()
		return fmt.Sprintf("/campaigns?state=failed&since=%d&limit=20", since)
	}
	return fmt.Sprintf("/campaigns?model=%s&limit=20&offset=%d", model, c.rng.Intn(400))
}

// loop submits a campaign, polls it with reads until it is terminal, and
// repeats until the deadline. The last campaign always runs to the end.
func (c *client) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		body, _ := json.Marshal(campaignSpec) // a fixed struct always encodes
		var snap telemetry.CampaignSnapshot
		if _, _, err := c.do(http.MethodPost, "/campaigns", bytes.NewReader(body), &snap); err != nil {
			c.errs = append(c.errs, err)
			return
		}
		c.ids = append(c.ids, snap.ID)
		for snap.State != telemetry.StateDone && snap.State != telemetry.StateFailed {
			time.Sleep(pollThink)
			var list []telemetry.CampaignSnapshot
			var aggs []store.ModelAggregate
			for _, err := range []error{
				c.read(fmt.Sprintf("/campaigns/%d", snap.ID), &snap),
				c.read(c.listing(), &list),
				c.read("/campaigns/aggregate?by=model", &aggs),
			} {
				if err != nil {
					c.errs = append(c.errs, err)
				}
			}
			if len(c.errs) > 10 {
				return
			}
		}
	}
}

// loadResult is one load phase's measurements.
type loadResult struct {
	wall, cpu, alloc  float64
	campaigns         []telemetry.CampaignSnapshot
	readCPU, readWall []float64
	requests          int
}

// campaignCPU is the process CPU of the load phase minus the handler CPU
// of the reads, which read_cpu_* report: how many polls a campaign gets
// depends on how long it runs, and that would feed back into its cost.
func (lr *loadResult) campaignCPU() float64 { return lr.cpu - sum(lr.readCPU) }

// runLoad drives the service with the closed-loop clients for env.seconds
// and waits until every submitted campaign is terminal.
func runLoad(ctx context.Context, env *runEnv, sv *service, rep *report) (*loadResult, error) {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(sv.handler, env.seed*clients+int64(i), ctx)
	}
	lr := &loadResult{}
	runtime.GC()
	cpu0, alloc0, start := cpuSeconds(), allocBytes(), time.Now()
	deadline := start.Add(time.Duration(env.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(deadline)
		}(c)
	}
	wg.Wait()
	lr.wall, lr.cpu, lr.alloc = time.Since(start).Seconds(), cpuSeconds()-cpu0, allocBytes()-alloc0
	for _, c := range cs {
		lr.readCPU = append(lr.readCPU, c.readCPU...)
		lr.readWall = append(lr.readWall, c.readWall...)
		lr.requests += c.requests
		for _, err := range c.errs {
			rep.failOp("%v", err)
		}
		for _, id := range c.ids {
			snap, ok := sv.d.CampaignByID(id)
			if !ok {
				return nil, fmt.Errorf("campaign %d vanished", id)
			}
			lr.campaigns = append(lr.campaigns, snap)
		}
	}
	if len(lr.campaigns) == 0 {
		return nil, errors.New("no campaign was submitted")
	}
	return lr, nil
}

// campaignAnswer is the deterministic part of a finished campaign.
type campaignAnswer struct {
	queries, solutions        int
	geomExact, cycles, events float64
}

// checkCampaigns checks every campaign finished with the same answer, and
// scores its geometry against SmallCNN from the ledger's final snapshot.
func checkCampaigns(sv *service, lr *loadResult, rep *report) campaignAnswer {
	arch := models.SmallCNN()
	var first *campaignAnswer
	for _, snap := range lr.campaigns {
		if snap.State != telemetry.StateDone || snap.Device == nil {
			rep.failOp("campaign %d ended %s: %s", snap.ID, snap.State, snap.Error)
			continue
		}
		a := campaignAnswer{queries: snap.VictimQueries, solutions: snap.SolutionCount,
			cycles: snap.Device.SimulatedTime, events: float64(snap.Device.TraceReadEvents + snap.Device.TraceWriteEvents)}
		led, _ := sv.d.ProgressLedger(snap.ID)
		final, ok := led.Latest()
		if !ok || !final.Done {
			rep.failOp("campaign %d has no final ledger snapshot", snap.ID)
			continue
		}
		exact := 0
		for _, u := range arch.ConvUnits() {
			unit := arch.Units[u]
			want := attack.Geom{Kernel: unit.Kernel, Stride: unit.Stride, Pool: unit.Pool}
			for _, ls := range final.Layers {
				if ls.Node == u+1 && (attack.Geom{Kernel: ls.Kernel, Stride: ls.Stride, Pool: ls.Pool}) == want {
					exact++
				}
			}
		}
		a.geomExact = float64(exact) / float64(len(arch.ConvUnits()))
		if first == nil {
			first = &a
			continue
		}
		if a.queries != first.queries || a.solutions != first.solutions || !sameBits(a.geomExact, first.geomExact) ||
			!sameBits(a.cycles, first.cycles) || !sameBits(a.events, first.events) {
			rep.failOp("campaign %d answered %+v, the first campaign %+v", snap.ID, a, *first)
		}
	}
	if first == nil {
		return campaignAnswer{}
	}
	return *first
}

// restart is one timed reopen of a killed daemon's directory.
type restart struct {
	sv        *service
	cpu, wall float64
}

// restartOnce reopens the killed service's directory, times it until the
// served listing holds the whole history again, and checks that history.
func restartOnce(ctx context.Context, env *runEnv, dir string, want map[int]string, rep *report) (restart, error) {
	runtime.GC()
	c0, w0 := cpuSeconds(), time.Now()
	sv, err := startService(ctx, dir, env, nil)
	if err != nil {
		return restart{}, err
	}
	var list []telemetry.CampaignSnapshot
	_, _, err = newClient(sv.handler, env.seed, ctx).do(http.MethodGet, "/campaigns", nil, &list)
	r := restart{sv: sv, cpu: cpuSeconds() - c0, wall: time.Since(w0).Seconds()}
	if err != nil {
		rep.failOp("restart listing: %v", err)
		return r, nil
	}
	if len(list) != len(want) {
		rep.problem("restarted daemon serves %d campaigns, want %d", len(list), len(want))
	}
	for _, s := range list {
		if st, ok := want[s.ID]; !ok || st != s.State {
			rep.problem("restarted daemon serves campaign %d as %q, want %q", s.ID, s.State, st)
			break
		}
	}
	return r, nil
}

// runDaemonWorkload times set-up, drives the daemon for --seconds, kills
// it and times restarts.
func runDaemonWorkload(env *runEnv) (*report, error) {
	rep := newReport()
	root := filepath.Join(outDir, fmt.Sprintf("daemon-%d", os.Getpid()))
	defer os.RemoveAll(root)
	ctx := context.Background()

	var setups []float64
	var sv *service
	for i := 0; i < daemonSetupRepeats; i++ {
		if sv != nil {
			if err := sv.kill(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		runtime.GC()
		c0 := cpuSeconds()
		if err := seedCorpus(filepath.Join(dir, "store"), env.seed); err != nil {
			return nil, err
		}
		var err error
		if sv, err = startService(ctx, dir, env, nil); err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	rep.metrics["setup_s"] = median(setups)

	lr, restarts, err := loadAndRestart(ctx, env, sv, rep)
	if err != nil {
		return nil, err
	}
	ans := checkCampaigns(sv, lr, rep)
	var runs, e2e []float64
	for _, s := range lr.campaigns {
		if s.Started != nil && s.Finished != nil {
			runs = append(runs, s.Finished.Sub(*s.Started).Seconds())
			e2e = append(e2e, s.Finished.Sub(s.Submitted).Seconds())
		}
	}
	var rcpu, rwall []float64
	for _, r := range restarts {
		rcpu, rwall = append(rcpu, r.cpu), append(rwall, r.wall)
	}
	n := float64(len(lr.campaigns))
	m := rep.metrics
	m["attack_cpu_s"] = lr.campaignCPU() / n
	m["alloc_bytes"] = lr.alloc / n
	m["victim_queries"] = float64(ans.queries)
	m["log10_solutions"] = math.Log10(float64(ans.solutions))
	m["geometry_exact_frac"] = ans.geomExact
	m["read_cpu_p50_ms"] = 1e3 * quantile(lr.readCPU, 0.50)
	m["read_cpu_mean_ms"] = 1e3 * mean(lr.readCPU)
	m["cpu.read_p99_ms"] = 1e3 * quantile(lr.readCPU, 0.99)
	m["restart_cpu_s"] = median(rcpu)
	m["ok_frac"] = 1 - float64(rep.failed)/float64(rep.attempted)
	m["wall.attack_s"] = median(runs)
	m["wall.campaign_p50_s"] = median(e2e)
	m["wall.campaigns_per_s"] = n / lr.wall
	m["wall.read_p50_ms"] = 1e3 * quantile(lr.readWall, 0.50)
	m["wall.read_p99_ms"] = 1e3 * quantile(lr.readWall, 0.99)
	m["wall.restart_s"] = median(rwall)
	rep.note("%d campaigns, %d reads, %d solutions, geometry_exact=%.3f", len(lr.campaigns), len(lr.readCPU), ans.solutions, ans.geomExact)
	noteUnbounded(rep)

	if env.traced {
		return rep, tracedDaemon(ctx, env, root, rep, lr)
	}
	return rep, nil
}

// loadAndRestart runs the load phase on sv, kills it, and restarts the
// same directory restartRepeats times.
func loadAndRestart(ctx context.Context, env *runEnv, sv *service, rep *report) (*loadResult, []restart, error) {
	lr, err := runLoad(ctx, env, sv, rep)
	if err != nil {
		return nil, nil, err
	}
	rep.attempted += lr.requests
	want := map[int]string{}
	for _, s := range sv.d.Campaigns() {
		want[s.ID] = s.State
	}
	if err := sv.kill(); err != nil {
		return nil, nil, err
	}
	var restarts []restart
	for i := 0; i < restartRepeats; i++ {
		rep.attempted++
		r, err := restartOnce(ctx, env, sv.dir, want, rep)
		if err != nil {
			return nil, nil, err
		}
		restarts = append(restarts, r)
		if err := r.sv.kill(); err != nil {
			return nil, nil, err
		}
	}
	return lr, restarts, nil
}

// tracedDaemon repeats the load on a fresh service with spans on every
// HTTP request, store call and restart phase, and reports the per-layer
// metrics.
func tracedDaemon(ctx context.Context, env *runEnv, root string, rep *report, untraced *loadResult) error {
	col := obs.NewCollector()
	tctx := obs.WithRecorder(ctx, col)
	dir := filepath.Join(root, "traced")
	if err := seedCorpus(filepath.Join(dir, "store"), env.seed); err != nil {
		return err
	}
	sv, err := startService(tctx, dir, env, col)
	if err != nil {
		return err
	}
	sv.st.reset()
	lr, err := runLoad(tctx, env, sv, rep)
	if err != nil {
		return err
	}
	m := rep.metrics
	m["trace_overhead_frac"] = (lr.campaignCPU()/float64(len(lr.campaigns)))/(untraced.campaignCPU()/float64(len(untraced.campaigns))) - 1

	put, get, list, agg := sv.st.snapshot()
	st := sv.st.Stats()
	m["store.put_s"], m["store.puts"] = put.seconds, float64(put.calls)
	m["store.get_s"] = get.seconds
	m["store.list_s"], m["store.lists"] = list.seconds, float64(list.calls)
	if list.calls > 0 {
		// Per call: the closed-loop clients list less often when lists are slow.
		m["store.list_cpu_s"] = list.cpu / float64(list.calls)
	}
	m["store.aggregate_s"] = agg.seconds
	m["store.live_bytes"], m["store.segments"] = float64(st.LiveBytes), float64(st.Segments)
	js := sv.journal.Stats()
	m["journal.appends"], m["journal.fsyncs"], m["journal.bytes"] = float64(js.Appends), float64(js.Fsyncs), float64(js.Bytes)
	var waits, runs []float64
	for _, s := range lr.campaigns {
		if s.Started != nil && s.Finished != nil {
			waits = append(waits, s.Started.Sub(s.Submitted).Seconds())
			runs = append(runs, s.Finished.Sub(*s.Started).Seconds())
		}
	}
	m["daemon.queue_wait_s"], m["daemon.run_s"] = median(waits), median(runs)

	want := map[int]string{}
	for _, s := range sv.d.Campaigns() {
		want[s.ID] = s.State
	}
	if err := sv.kill(); err != nil {
		return err
	}
	var phases [3][]float64
	for i := 0; i < restartRepeats; i++ {
		rctx, sp := obs.Start(tctx, "restart")
		r, err := restartOnce(rctx, env, dir, want, rep)
		sp.End()
		if err != nil {
			return err
		}
		for p := range phases {
			phases[p] = append(phases[p], r.sv.phases[p])
		}
		if err := r.sv.kill(); err != nil {
			return err
		}
	}
	m["restart.journal_open_s"], m["restart.store_open_s"], m["restart.daemon_s"] = median(phases[0]), median(phases[1]), median(phases[2])
	return writeSpans(env, "daemon_mixed", col, m)
}
