package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/store"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// timedVictim is the benchmark's handle on the accel layer. The attack
// prefers RunCtx, so every victim query passes through here: it is timed
// from outside, optionally slowed (self-test), and on traced runs spanned,
// charged to the per-unit MAC counters from LastStats, and sampled for the
// nn and trace replays.
type timedVictim struct {
	m      *accel.Machine
	slow   float64
	traced bool
	// sampleEvery keeps every n-th query's image and trace for replay.
	sampleEvery int

	cpu, latency []float64 // process CPU and wall seconds per query
	dense, eff   []float64 // per arch unit, summed over queries (traced only)
	images       []*tensor.Tensor
	traces       []*trace.Trace
}

func newTimedVictim(m *accel.Machine, env *runEnv, sampleEvery int) *timedVictim {
	v := &timedVictim{m: m, slow: 1, traced: env.traced, sampleEvery: sampleEvery}
	if env.slow.layer == "accel" {
		v.slow = env.slow.factor
	}
	if v.traced {
		v.dense = make([]float64, len(m.Arch.Units))
		v.eff = make([]float64, len(m.Arch.Units))
	}
	return v
}

// Run implements huffduff.Victim for callers without a context.
func (v *timedVictim) Run(img *tensor.Tensor) (*trace.Trace, error) {
	return v.RunCtx(context.Background(), img)
}

// RunCtx forwards one query to Machine.RunCtx. The attack issues one query
// at a time, and the dense inference inside the query spreads its larger
// matrix products over GOMAXPROCS goroutines, so the process CPU clock,
// not the calling thread's, prices the query.
func (v *timedVictim) RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error) {
	sctx, sp := obs.Start(ctx, "accel.run")
	c0, start := cpuSeconds(), time.Now()
	tr, err := v.m.RunCtx(sctx, img)
	if v.slow > 1 {
		burn((cpuSeconds() - c0) * (v.slow - 1))
	}
	cpu, d := cpuSeconds()-c0, time.Since(start).Seconds()
	sp.End()
	v.cpu = append(v.cpu, cpu)
	v.latency = append(v.latency, d)
	if err != nil || !v.traced {
		return tr, err
	}
	for _, l := range v.m.LastStats().Layers {
		v.dense[l.Unit] += l.DenseMACs
		v.eff[l.Unit] += l.EffectualMACs
	}
	if (len(v.latency)-1)%v.sampleEvery == 0 {
		v.images = append(v.images, img.Clone())
		v.traces = append(v.traces, tr)
	}
	return tr, nil
}

// burn spends d seconds of CPU on the calling thread by reading the
// thread's CPU clock until it has advanced by d.
func burn(d float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for end := threadCPU() + d; threadCPU() < end; {
	}
}

// opStat accumulates calls into one store operation: wall seconds and the
// CPU seconds of the calling thread.
type opStat struct {
	calls        int
	seconds, cpu float64
}

// timedStore wraps the daemon's campaign store: every call is timed, spanned
// on traced runs (as a root span: the Store interface carries no context),
// and Campaigns is optionally slowed for the self-test.
type timedStore struct {
	inner store.Store
	ctx   context.Context // carries the traced run's recorder, if any, and no span
	slow  float64

	mu sync.Mutex
	// put, get, list, agg and events are guarded by mu.
	put, get, list, agg, events opStat
}

func newTimedStore(inner store.Store, rec obs.Recorder, env *runEnv) *timedStore {
	s := &timedStore{inner: inner, ctx: obs.WithRecorder(context.Background(), rec), slow: 1}
	if env.slow.layer == "store.list" {
		s.slow = env.slow.factor
	}
	return s
}

// timed runs f as one call of the operation op (a field of s) under a
// span named name, on a locked thread so its CPU clock prices the call.
func (s *timedStore) timed(name string, op *opStat, slow float64, f func()) {
	_, sp := obs.Start(s.ctx, name)
	runtime.LockOSThread()
	c0, start := threadCPU(), time.Now()
	f()
	if slow > 1 {
		burn((threadCPU() - c0) * (slow - 1))
	}
	cpu, d := threadCPU()-c0, time.Since(start).Seconds()
	runtime.UnlockOSThread()
	sp.End()
	s.mu.Lock()
	op.calls++
	op.seconds += d
	op.cpu += cpu
	s.mu.Unlock()
}

func (s *timedStore) PutCampaign(rec store.CampaignRecord) (err error) {
	s.timed("store.put", &s.put, 1, func() { err = s.inner.PutCampaign(rec) })
	return err
}

func (s *timedStore) Campaign(id int) (rec store.CampaignRecord, ok bool, err error) {
	s.timed("store.get", &s.get, 1, func() { rec, ok, err = s.inner.Campaign(id) })
	return rec, ok, err
}

func (s *timedStore) Campaigns(q store.Query) (recs []store.CampaignRecord, err error) {
	s.timed("store.list", &s.list, s.slow, func() { recs, err = s.inner.Campaigns(q) })
	return recs, err
}

func (s *timedStore) AggregateByModel() (aggs []store.ModelAggregate, err error) {
	s.timed("store.aggregate", &s.agg, 1, func() { aggs, err = s.inner.AggregateByModel() })
	return aggs, err
}

func (s *timedStore) PutEvents(batch store.EventBatch) (err error) {
	s.timed("store.put_events", &s.events, 1, func() { err = s.inner.PutEvents(batch) })
	return err
}

func (s *timedStore) Events(id int) (store.EventBatch, bool, error) { return s.inner.Events(id) }
func (s *timedStore) Stats() store.Stats                            { return s.inner.Stats() }
func (s *timedStore) Close() error                                  { return s.inner.Close() }

// reset zeroes the per-operation counters.
func (s *timedStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put, s.get, s.list, s.agg, s.events = opStat{}, opStat{}, opStat{}, opStat{}, opStat{}
}

// snapshot returns the accumulated per-operation counters.
func (s *timedStore) snapshot() (put, get, list, agg opStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	put = s.put
	put.calls += s.events.calls
	put.seconds += s.events.seconds
	put.cpu += s.events.cpu
	return put, s.get, s.list, s.agg
}

// Linux CPU-time clocks. They count in nanoseconds, where getrusage
// reports a thread's time in scheduler ticks (4 ms here), and they leave
// out time the hypervisor stole from the vCPU.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return math.NaN()
	}
	return float64(ts.Nano()) / 1e9
}

// cpuSeconds is the process's CPU time.
func cpuSeconds() float64 { return cpuClock(clockProcessCPU) }

// threadCPU is the calling thread's CPU time. Callers lock the goroutine
// to its thread around the section they price.
func threadCPU() float64 { return cpuClock(clockThreadCPU) }

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64())
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// unboundedMetrics are the figures every run prints as a note but no bound
// covers: wall clock, which varies too much between runs on this host, and
// the 99th percentile of per-read CPU, whose attack-workload value is
// mostly interference (see NOTES.md). The traced run reports them as
// per-layer metrics.
var unboundedMetrics = []string{"wall.attack_s", "wall.campaign_p50_s", "wall.campaigns_per_s",
	"wall.read_p50_ms", "wall.read_p99_ms", "wall.restart_s", "cpu.read_p99_ms"}

// noteUnbounded adds the run's unbounded figures to its notes.
func noteUnbounded(rep *report) {
	var parts []string
	for _, k := range unboundedMetrics {
		if v, ok := rep.metrics[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, v))
		}
	}
	rep.note("%s", strings.Join(parts, " "))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// sameBits reports whether two deterministic outputs are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// b2f is 1 for true and 0 for false.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
