package main

// The traced run: per-layer metrics. It never reports end-to-end numbers;
// those come from untraced runs only. Its phases, as shares of the run's
// time budget:
//
//	U  untraced dispatch over every slot (baseline for trace.overhead)
//	M  the traced session mirror over every slot, plus a short probe of
//	   the algorithms the workload's grid lacks
//	A  the mirror on one P with every allocation profiled (core allocs)
//	F  a loopback fleet over the sct-first-bug plan with the store
//	   decorator and the RPC transport wrapper
//
// then the surwsync op-mix and obs observer-effect probes.
//
// Every session of U, M, A and F is checked against the committed digests.

import (
	"sync"
	"time"

	"surw/internal/experiments"
	"surw/internal/remote"
	"surw/internal/runner"
)

// allAlgs are the algorithms of the grids, each with per-algorithm core
// metrics (RBAlgorithms is a subset).
var allAlgs = experiments.SCTAlgorithms

// minLayerUnits floors every traced phase so its percentiles have enough
// samples beyond them; fleet phases need 100 for a p90.
const (
	minLayerUnits = 40
	minFleetUnits = 110
)

// layerUnits are the per-layer metrics of a traced run.
func layerUnits() map[string]string {
	u := map[string]string{
		"sched.events_per_schedule":    "count",
		"sched.ns_per_event":           "ns",
		"sched.slow_loop_share":        "fraction",
		"sched.forced_share":           "fraction",
		"sched.prefix_capture_us":      "us",
		"core.share":                   "fraction",
		"profile.collect_ms_p50":       "ms",
		"profile.share":                "fraction",
		"runner.delta_us_per_schedule": "us",
		"runner.pool_setup_us":         "us",
		"runner.self_share":            "fraction",
		"surwsync.ops_per_schedule":    "count",
		"surwsync.ns_per_op":           "ns",
		"surwsync.share":               "fraction",
		"campaign.store_ms_p50":        "ms",
		"campaign.store_ms_p90":        "ms",
		"campaign.lookup_us_p50":       "us",
		"remote.lease_ms_p50":          "ms",
		"remote.lease_ms_p90":          "ms",
		"remote.lease_rpc_ms_p50":      "ms",
		"remote.lease_rpc_ms_p90":      "ms",
		"remote.submit_rpc_ms_p50":     "ms",
		"remote.submit_rpc_ms_p90":     "ms",
		"remote.rpcs_per_session":      "count",
		"remote.idle_share":            "fraction",
		"obs.observed_ratio":           "ratio",
		"obs.spans_per_lease":          "count",
		"dispatch.busy_share":          "fraction",
		"trace.overhead":               "ratio",
	}
	for _, a := range allAlgs {
		u["core.ns_per_decision."+a] = "ns"
		u["core.allocs_per_schedule."+a] = "count"
	}
	return u
}

// traceLog collects session traces from concurrent slots.
type traceLog struct {
	mu     sync.Mutex
	traces []sessionTrace
}

func (l *traceLog) mirror(w *workload) sessionFunc {
	return func(u unit) (*runner.Session, error) {
		var tr sessionTrace
		s, err := mirrorSession(&w.cells[u.cell], u.session, &tr)
		l.mu.Lock()
		l.traces = append(l.traces, tr)
		l.mu.Unlock()
		return s, err
	}
}

// tally folds a phase's outcomes into the report.
func (r *report) tally(p *phase) {
	r.attempted += p.attempted()
	r.failed += p.failed()
	if r.firstErr == nil {
		r.firstErr = p.firstError()
	}
}

func tracedRun(w *workload, table digestTable, seed int64, budget time.Duration, slots int, tmp string, r *report) (map[string]float64, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	calibrateClock()
	t0 := time.Now()
	mark := func(ph string, p *phase) {
		logf("%s traced: phase %s done at %.1fs (%d sessions)", w.name, ph, time.Since(t0).Seconds(), p.attempted())
	}

	// U: untraced.
	pu := dispatchLocal(w, newFeeder(w, seed, minLayerUnits, false, deadline(share(0.25))), slots, w.runSession)
	r.tally(pu)
	mark("U", pu)

	// M: the traced mirror.
	var mirrored traceLog
	pm := dispatchLocal(w, newFeeder(w, seed, minLayerUnits, false, deadline(share(0.3))), slots, mirrored.mirror(w))
	r.tally(pm)
	mark("M", pm)
	// Algorithms outside the workload's grid, on its targets; their
	// sessions have no committed digests and feed only core.*.<ALG>.
	var extra traceLog
	if pw := missingAlgs(w); pw != nil {
		mark("M+", dispatchLocal(pw, newFeeder(pw, seed, minLayerUnits/2, false, deadline(share(0.05))), slots, extra.mirror(pw)))
	}

	// A: allocations per algorithm, one P, every allocation profiled.
	allocs := make(map[string]float64)
	withAllocProfile(func() {
		per := share(0.15) / time.Duration(len(allAlgs))
		for _, alg := range allAlgs {
			sub := w.only(alg)
			if sub == nil {
				sub = missingAlgs(w).only(alg)
			}
			var log traceLog
			before := algorithmAllocs()
			p := dispatchLocal(sub, newFeeder(sub, seed, 1, false, deadline(per)), 1, log.mirror(sub))
			n := algorithmAllocs().since(before)
			if sub.digests != nil {
				r.tally(p)
			}
			schedules := 0
			for _, t := range log.traces {
				schedules += t.schedules
			}
			allocs[alg] = ratio(float64(n), float64(schedules))
			mark("A/"+alg, p)
		}
	})

	// F: a loopback fleet over the sct-first-bug plan with the store
	// decorator and the RPC transport wrapper.
	fw, err := loadWorkload("sct-first-bug", table)
	if err != nil {
		return nil, err
	}
	fl, err := startFleet(fw, newFeeder(fw, seed, 0, false, nil).plan(digestRounds), slots, tmp)
	if err != nil {
		return nil, err
	}
	pf := fl.measure(fl.log.firstAt, minFleetUnits, deadline(share(0.15)))
	fl.close()
	r.tally(pf)
	mark("F", pf)

	engine, err := probeEngine()
	if err != nil {
		return nil, err
	}
	m := layerMetrics(mirrored.traces, extra.traces, allocs, probeSurwsync(share(0.05)), engine)
	fm, retryFrac := fleetMetrics(fl, pf)
	for k, v := range fm {
		m[k] = v
	}
	r.undeclared["remote.retry_frac"] = retryFrac
	m["obs.observed_ratio"] = probeObserved(share(0.05))
	m["dispatch.busy_share"] = float64(pu.busy) / (float64(pu.wall) * float64(pu.slots))
	m["trace.overhead"] = rate(pm) / rate(pu)
	return m, nil
}

func rate(p *phase) float64 { return float64(p.schedules()) / p.wall.Seconds() }

// missingAlgs returns the workload's cells re-run under the grid
// algorithms it lacks (nil when it has them all), without digests.
func missingAlgs(w *workload) *workload {
	have := make(map[string]bool)
	for _, c := range w.cells {
		have[c.alg] = true
	}
	out := &workload{name: w.name + "+probe"}
	seen := make(map[string]bool)
	for _, c := range w.cells {
		if seen[c.tgt.Name] {
			continue
		}
		seen[c.tgt.Name] = true
		for _, a := range allAlgs {
			if !have[a] {
				out.cells = append(out.cells, cell{tgt: c.tgt, alg: a, cfg: c.cfg})
			}
		}
	}
	if len(out.cells) == 0 {
		return nil
	}
	return out
}

// only returns the workload restricted to one algorithm's cells, digests
// kept, or nil when it has none.
func (w *workload) only(alg string) *workload {
	if w == nil {
		return nil
	}
	out := &workload{name: w.name + "/" + alg}
	for i, c := range w.cells {
		if c.alg != alg {
			continue
		}
		out.cells = append(out.cells, c)
		if w.digests != nil {
			out.digests = append(out.digests, w.digests[i])
		}
	}
	if len(out.cells) == 0 {
		return nil
	}
	return out
}

func isSurwsyncTarget(name string) bool { return len(name) > 3 && name[:3] == "WP/" }

// layerMetrics computes the engine, algorithm, census, runner and
// surwsync metrics from the mirror's session traces, the allocation phase
// and the surwsync and engine probes. A share or count of a path the
// workload's sessions never take (no surwsync target, no ≥64-thread
// target, no forced prefix) is read from the probe instead, so no
// declared metric reads 0: it stays flat on that workload, as
// core.*.<ALG> of a missing algorithm does.
func layerMetrics(traces, extra []sessionTrace, allocs map[string]float64, wp surwsyncCost, eng engineShares) map[string]float64 {
	var total, pool, prof, delta, engine, algT time.Duration
	var schedules, events, forced, slow, wpEvents int
	var prefixUs, profileMs, poolUs []float64
	perAlg := make(map[string]*algTally)
	for _, a := range allAlgs {
		perAlg[a] = &algTally{}
	}
	for _, t := range traces {
		total += t.total
		pool += t.pool
		prof += t.profile
		delta += t.delta
		engine += t.engine
		algT += t.algT.estimate()
		schedules += t.schedules
		events += t.events
		forced += t.forced
		slow += t.slow
		if t.hasPrefix {
			prefixUs = append(prefixUs, us(t.prefix))
		}
		if t.profiled {
			profileMs = append(profileMs, ms(t.profile))
		}
		poolUs = append(poolUs, us(t.pool))
		perAlg[t.alg].add(t.algT)
		if isSurwsyncTarget(t.target) {
			wpEvents += t.events
		}
	}
	for _, t := range extra {
		perAlg[t.alg].add(t.algT)
	}
	fs := float64(schedules)
	m := map[string]float64{
		"sched.events_per_schedule":    float64(events) / fs,
		"sched.ns_per_event":           float64(engine-algT) / float64(events),
		"sched.slow_loop_share":        float64(slow) / fs,
		"sched.forced_share":           float64(forced) / float64(events),
		"sched.prefix_capture_us":      pct(prefixUs, 0.5),
		"core.share":                   float64(algT) / float64(total),
		"profile.collect_ms_p50":       pct(profileMs, 0.5),
		"profile.share":                float64(prof) / float64(total),
		"runner.delta_us_per_schedule": us(delta) / fs,
		"runner.pool_setup_us":         pct(poolUs, 0.5),
		"runner.self_share":            float64(total-pool-prof-delta-engine) / float64(total),
		"surwsync.ops_per_schedule":    float64(wpEvents) / fs,
		"surwsync.ns_per_op":           wp.nsPerOp,
		"surwsync.share":               float64(wpEvents) * wp.nsPerOp / float64(total),
	}
	if slow == 0 {
		m["sched.slow_loop_share"] = eng.slow
	}
	if forced == 0 {
		m["sched.forced_share"] = eng.forced
	}
	if wpEvents == 0 {
		m["surwsync.ops_per_schedule"] = wp.opsPerSchedule
		m["surwsync.share"] = wp.share
	}
	for _, a := range allAlgs {
		t := perAlg[a]
		m["core.ns_per_decision."+a] = ratio(float64(t.estimate()), float64(t.decisions))
		m["core.allocs_per_schedule."+a] = allocs[a]
	}
	return m
}

// fleetMetrics computes the store, RPC and span metrics of a decorated
// fleet phase, and the share of RPCs that failed and were retried. That
// share is 0 on a healthy fleet, so it is not a declared metric; the
// detail record carries it.
func fleetMetrics(fl *fleet, p *phase) (map[string]float64, float64) {
	var storeMs, lookupUs []float64
	fl.timed.mu.Lock()
	for _, d := range fl.timed.stores {
		storeMs = append(storeMs, ms(d))
	}
	for _, d := range fl.timed.lookups {
		lookupUs = append(lookupUs, us(d))
	}
	fl.timed.mu.Unlock()
	l := fl.log
	l.mu.Lock()
	defer l.mu.Unlock()
	toMs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = ms(d)
		}
		return out
	}
	leaseMs := make([]float64, len(l.accepted))
	for i, a := range l.accepted {
		leaseMs[i] = ms(a.dur)
	}
	var rpcTime time.Duration
	for _, ds := range l.rpc {
		for _, d := range ds {
			rpcTime += d
		}
	}
	sessions := float64(p.attempted())
	spans := len(fl.coord.Spans())
	return map[string]float64{
		"campaign.store_ms_p50":    pct(storeMs, 0.5),
		"campaign.store_ms_p90":    pct(storeMs, 0.9),
		"campaign.lookup_us_p50":   pct(lookupUs, 0.5),
		"remote.lease_ms_p50":      pct(leaseMs, 0.5),
		"remote.lease_ms_p90":      pct(leaseMs, 0.9),
		"remote.lease_rpc_ms_p50":  pct(toMs(l.rpc[remote.PathLease]), 0.5),
		"remote.lease_rpc_ms_p90":  pct(toMs(l.rpc[remote.PathLease]), 0.9),
		"remote.submit_rpc_ms_p50": pct(toMs(l.rpc[remote.PathResult]), 0.5),
		"remote.submit_rpc_ms_p90": pct(toMs(l.rpc[remote.PathResult]), 0.9),
		"remote.rpcs_per_session":  float64(l.attempts) / sessions,
		"remote.idle_share":        float64(rpcTime) / (float64(p.wall) * float64(p.slots)),
		"obs.spans_per_lease":      float64(spans) / float64(len(l.accepted)),
	}, float64(l.failures) / float64(l.attempts)
}
