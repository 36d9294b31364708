package main

// Fixed probes of single layers, run by the traced run on every workload:
// the surwsync binding's per-op cost, the obs.Metrics observer effect, and
// the algorithm layer's allocations (attributed from the heap profile).

import (
	"runtime"
	"strings"
	"time"

	"surw/internal/core"
	"surw/internal/obs"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
	"surw/surwsync"
)

// The op mix: two workers each take a mutex and pass a value through a
// one-slot channel opMixIters times, joined by a wait group. It is written
// once on the explicit sched.Thread API and once on surwsync, so the two
// differ only in how each op reaches the engine.
const opMixIters = 16

func opMixExplicit(t *sched.Thread) {
	mu := t.NewMutex("mu")
	ch := sched.NewChan[int](t, "ch", 1)
	wg := t.NewWaitGroup("wg")
	wg.Add(t, 2)
	for w := 0; w < 2; w++ {
		t.Go(func(c *sched.Thread) {
			for i := 0; i < opMixIters; i++ {
				mu.Lock(c)
				mu.Unlock(c)
				ch.Send(c, i)
				ch.Recv(c)
			}
			wg.Done(c)
		})
	}
	wg.Wait(t)
}

var opMixShim = surwsync.Program(func() {
	var mu surwsync.Mutex
	var wg surwsync.WaitGroup
	ch := surwsync.NewChan[int](1)
	wg.Add(2)
	for w := 0; w < 2; w++ {
		surwsync.Go(func() {
			for i := 0; i < opMixIters; i++ {
				mu.Lock()
				mu.Unlock()
				ch.Send(i)
				ch.Recv()
			}
			wg.Done()
		})
	}
	wg.Wait()
})

// surwsyncCost is what the op-mix probe measures.
type surwsyncCost struct {
	nsPerOp        float64 // the binding's extra cost per op
	opsPerSchedule float64 // events of one op-mix schedule
	share          float64 // the binding's share of an op-mix schedule's time
}

// probeSurwsync measures the surwsync binding's extra cost per op: the
// per-schedule time difference between the two op-mix programs under RW,
// divided by the events of a schedule. Batches alternate and the medians
// of the per-batch times are compared, so drift hits both sides.
func probeSurwsync(budget time.Duration) surwsyncCost {
	const batch = 50
	pool := sched.NewPool()
	defer pool.Close()
	var expl, shim []float64
	steps := 0
	seed := int64(0)
	runBatch := func(prog func(*sched.Thread)) float64 {
		alg, _ := core.New("RW")
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			seed++
			r := pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: seed}})
			steps = r.Steps
		}
		return float64(time.Since(t0).Nanoseconds()) / batch
	}
	stop := deadline(budget)
	for len(expl) < 5 || !stop() {
		expl = append(expl, runBatch(opMixExplicit))
		shim = append(shim, runBatch(opMixShim))
	}
	extra := median(shim) - median(expl)
	return surwsyncCost{
		nsPerOp:        extra / float64(steps),
		opsPerSchedule: float64(steps),
		share:          extra / median(shim),
	}
}

// engineShares are the engine's path shares in a fixed sample.
type engineShares struct {
	slow   float64 // schedules on the slow loop ÷ schedules
	forced float64 // forced decisions replayed ÷ events
}

// probeEngine measures the engine's path shares in a fixed sample that
// reaches both paths: two schedules (a prefix capture and a replay) of
// every Table 4 target, which include the two 101-thread targets, and of
// every worker-pool target, which have a forced prefix, under RW.
func probeEngine() (engineShares, error) {
	var slow, forced, schedules, events int
	targets := append(sctbench.Targets(), sctbench.WorkerPoolTargets()...)
	for _, tgt := range targets {
		var tr sessionTrace
		c := cell{tgt: tgt, alg: "RW", cfg: runner.Config{Limit: 2, Seed: cfgSeed}}
		if _, err := mirrorSession(&c, 0, &tr); err != nil {
			return engineShares{}, err
		}
		slow += tr.slow
		forced += tr.forced
		schedules += tr.schedules
		events += tr.events
	}
	return engineShares{
		slow:   float64(slow) / float64(schedules),
		forced: float64(forced) / float64(events),
	}, nil
}

// probeObserved returns schedules/s of a fixed SCT sample with obs.Metrics
// attached divided by the same sample without it. The sample is every
// Table 4 target under RW for a short fixed budget, session 0.
func probeObserved(budget time.Duration) float64 {
	targets := sctbench.Targets()
	pass := func(m *obs.Metrics) float64 {
		cfg := runner.Config{Limit: 20, Seed: cfgSeed, Metrics: m}
		n := 0
		t0 := time.Now()
		for _, tgt := range targets {
			s, err := runner.RunSession(bgCtx, tgt, "RW", cfg, 0)
			if err == nil {
				n += s.Schedules
			}
		}
		return float64(n) / time.Since(t0).Seconds()
	}
	var plain, watched []float64
	stop := deadline(budget)
	for len(plain) < 3 || !stop() {
		plain = append(plain, pass(nil))
		watched = append(watched, pass(obs.NewMetrics()))
	}
	return median(watched) / median(plain)
}

// heapProfile snapshots the allocation counts of every heap-profile
// record whose allocating code is in the algorithm layer.
type heapProfile map[[32]uintptr]int64

// algorithmAllocs reads the heap profile (after the two GC cycles it may
// lag by) and returns the cumulative allocations whose innermost frame in
// this module is in surw/internal/core, excluding those made under
// profile.Collect (its census drives a core algorithm too).
func algorithmAllocs() heapProfile {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(heapProfile)
	for i := range recs {
		if layerOf(recs[i].Stack()) == "core" {
			out[recs[i].Stack0] += recs[i].AllocObjects
		}
	}
	return out
}

// layerOf names the module layer that made an allocation: the package of
// the innermost frame in this module, or "profile" when the allocation
// happened under a census.
func layerOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	layer := ""
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, "surw/internal/profile.") {
			return "profile"
		}
		if layer == "" && strings.HasPrefix(f.Function, "surw/") {
			rest := strings.TrimPrefix(strings.TrimPrefix(f.Function, "surw/"), "internal/")
			if i := strings.IndexAny(rest, "./"); i > 0 {
				layer = rest[:i]
			}
		}
		if !more {
			return layer
		}
	}
}

// since returns the allocations recorded after the earlier snapshot.
func (h heapProfile) since(prev heapProfile) int64 {
	var n int64
	for k, v := range h {
		n += v - prev[k]
	}
	return n
}

// withAllocProfile runs fn on one P with every allocation profiled, then
// restores the defaults. One P means one allocation cache, whose sampling
// countdown a single large allocation resets to the new rate.
func withAllocProfile(fn func()) {
	procs := runtime.GOMAXPROCS(1)
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	burn = make([]byte, 4<<20)
	burn = nil
	defer func() {
		runtime.MemProfileRate = rate
		runtime.GOMAXPROCS(procs)
	}()
	fn()
}

// burn holds the sampling-reset allocation so it cannot be optimized away.
var burn []byte
