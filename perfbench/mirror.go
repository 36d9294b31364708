package main

// The traced session loop. mirrorSession reproduces runner.RunSession's
// session loop for the configurations the workloads use (no store, no
// coverage, no atlas, no flight recorder) from public calls only —
// profile.Collect, Select*/Instantiate, sched.NewPool, RunPrefix/RunFrom —
// so the benchmark can time each layer from its own files. Its results
// must equal RunSession's bit for bit: every traced session is checked
// against the same committed digests as the untraced ones.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"surw/internal/core"
	"surw/internal/profile"
	"surw/internal/runner"
	"surw/internal/sched"
)

// algTally is the algorithm layer's cost as one timedAlg saw it.
type algTally struct {
	decisions int64         // Next/NextIndex calls
	calls     int64         // calls eligible for sampling
	sampled   int64         // calls actually timed
	sampledNs time.Duration // time inside the sampled calls
	always    time.Duration // time inside Begin/BeginSource (always timed)
}

// estimate extrapolates the sampled calls to all calls, less the clock
// reads each timed interval contains.
func (t *algTally) estimate() time.Duration {
	est := t.always
	if t.sampled > 0 {
		in := t.sampledNs - time.Duration(t.sampled)*clockOverhead
		est += time.Duration(float64(max(in, 0)) * float64(t.calls) / float64(t.sampled))
	}
	return est
}

// clockOverhead is the mean duration of an empty timed interval; set by
// calibrateClock.
var clockOverhead time.Duration

// calibrateClock measures clockOverhead.
func calibrateClock() {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	clockOverhead = sum / n
}

func (t *algTally) add(o algTally) {
	t.decisions += o.decisions
	t.calls += o.calls
	t.sampled += o.sampled
	t.sampledNs += o.sampledNs
	t.always += o.always
}

// sampleMask times one call in 32: a timed call costs two clock reads
// (about 60 ns each on a 2-vCPU Xeon VM), which would otherwise dominate
// the cheapest algorithms' per-call cost.
const sampleMask = 31

// timedAlg is the sampled timing decorator around a sched.Algorithm. wrap
// gives it exactly the optional interfaces the wrapped algorithm has, so
// the engine takes the same paths with and without it.
type timedAlg struct {
	inner sched.Algorithm
	tally algTally
	tick  uint32
}

func (a *timedAlg) Name() string { return a.inner.Name() }

func (a *timedAlg) Begin(info *sched.ProgramInfo, rng *rand.Rand) {
	t0 := time.Now()
	a.inner.Begin(info, rng)
	a.tally.always += time.Since(t0)
}

func (a *timedAlg) Next(st *sched.State) sched.ThreadID {
	a.tally.decisions++
	if a.sample() {
		t0 := time.Now()
		tid := a.inner.Next(st)
		a.tally.sampledNs += time.Since(t0)
		return tid
	}
	return a.inner.Next(st)
}

func (a *timedAlg) Observe(ev sched.Event, st *sched.State) {
	if a.sample() {
		t0 := time.Now()
		a.inner.Observe(ev, st)
		a.tally.sampledNs += time.Since(t0)
		return
	}
	a.inner.Observe(ev, st)
}

func (a *timedAlg) sample() bool {
	a.tally.calls++
	a.tick++
	if a.tick&sampleMask != 0 {
		return false
	}
	a.tally.sampled++
	return true
}

func (a *timedAlg) observeSpawn(parent, child sched.ThreadID, st *sched.State) {
	if a.sample() {
		t0 := time.Now()
		a.inner.(sched.SpawnObserver).ObserveSpawn(parent, child, st)
		a.tally.sampledNs += time.Since(t0)
		return
	}
	a.inner.(sched.SpawnObserver).ObserveSpawn(parent, child, st)
}

func (a *timedAlg) nextIndex(n int) int {
	a.tally.decisions++
	if a.sample() {
		t0 := time.Now()
		i := a.inner.(sched.IndexChooser).NextIndex(n)
		a.tally.sampledNs += time.Since(t0)
		return i
	}
	return a.inner.(sched.IndexChooser).NextIndex(n)
}

func (a *timedAlg) beginSource(src rand.Source) {
	t0 := time.Now()
	a.inner.(sched.SourceChooser).BeginSource(src)
	a.tally.always += time.Since(t0)
}

// One method set per optional interface; the composites below pick them.
type spawnHook struct{ a *timedAlg }
type indexHook struct{ a *timedAlg }
type sourceHook struct{ a *timedAlg }

func (h spawnHook) ObserveSpawn(p, c sched.ThreadID, st *sched.State) { h.a.observeSpawn(p, c, st) }
func (h indexHook) NextIndex(n int) int                               { return h.a.nextIndex(n) }
func (h sourceHook) BeginSource(src rand.Source)                      { h.a.beginSource(src) }

type (
	timedS struct {
		*timedAlg
		spawnHook
	}
	timedI struct {
		*timedAlg
		indexHook
	}
	timedR struct {
		*timedAlg
		sourceHook
	}
	timedSI struct {
		*timedAlg
		spawnHook
		indexHook
	}
	timedSR struct {
		*timedAlg
		spawnHook
		sourceHook
	}
	timedIR struct {
		*timedAlg
		indexHook
		sourceHook
	}
	timedSIR struct {
		*timedAlg
		spawnHook
		indexHook
		sourceHook
	}
)

// wrap returns the timing decorator for alg and its tally.
func wrap(alg sched.Algorithm) (sched.Algorithm, *timedAlg) {
	a := &timedAlg{inner: alg}
	_, s := alg.(sched.SpawnObserver)
	_, i := alg.(sched.IndexChooser)
	_, r := alg.(sched.SourceChooser)
	sh, ih, rh := spawnHook{a}, indexHook{a}, sourceHook{a}
	switch {
	case s && i && r:
		return timedSIR{a, sh, ih, rh}, a
	case s && i:
		return timedSI{a, sh, ih}, a
	case s && r:
		return timedSR{a, sh, rh}, a
	case i && r:
		return timedIR{a, ih, rh}, a
	case s:
		return timedS{a, sh}, a
	case i:
		return timedI{a, ih}, a
	case r:
		return timedR{a, rh}, a
	}
	return a, a
}

// sessionTrace is one traced session's split of its wall time.
type sessionTrace struct {
	alg       string
	target    string
	total     time.Duration
	pool      time.Duration // NewPool + Close
	profile   time.Duration // profile.Collect
	delta     time.Duration // Δ selection + Instantiate
	engine    time.Duration // RunPrefix/RunFrom, algorithm included
	prefix    time.Duration // the RunPrefix call alone
	hasPrefix bool
	profiled  bool
	schedules int
	events    int
	forced    int // forced decisions replayed from the checkpoint
	slow      int // schedules on the slow loop (≥64 threads)
	algT      algTally
}

// needsProfile and usesDelta mirror the runner's algorithm classes.
func needsProfile(alg string) bool {
	a := strings.ToUpper(alg)
	return a == "SURW" || a == "N-U" || a == "N-S" || a == "URW" ||
		strings.HasPrefix(a, "PCT") || strings.HasPrefix(a, "DB-")
}

func usesDelta(alg string) bool {
	a := strings.ToUpper(alg)
	return a == "SURW" || a == "N-U"
}

// slowThreads is the thread count at which the engine leaves its batched
// loop for the slow one.
const slowThreads = 64

// mirrorSession runs session `session` of the cell like runner.RunSession,
// recording its layer split in tr.
func mirrorSession(c *cell, session int, tr *sessionTrace) (*runner.Session, error) {
	cfg := c.cfg
	if cfg.Coverage || cfg.Store != nil || cfg.Atlas != nil || cfg.FlightDir != "" || cfg.PrefixFilter != nil {
		return nil, fmt.Errorf("mirror: config outside the benchmark's workloads")
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 1000
	}
	t0 := time.Now()
	tr.alg, tr.target = c.alg, c.tgt.Name
	inner, err := core.New(c.alg)
	if err != nil {
		return nil, err
	}
	alg, timed := wrap(inner)
	tgt := c.tgt
	base := cfg.Seed + int64(session)*1_000_003
	var sessRng *rand.Rand

	plusOne := 0
	var prof *profile.Profile
	if needsProfile(c.alg) {
		plusOne = 1
		tp := time.Now()
		prof, _ = profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: base + 17, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}, Runs: cfg.ProfileRuns})
		tr.profile = time.Since(tp)
		tr.profiled = true
	}
	var fixedInfo *sched.ProgramInfo
	if prof != nil && !usesDelta(c.alg) {
		td := time.Now()
		fixedInfo = prof.Instantiate(prof.SelectAll())
		tr.delta += time.Since(td)
	}
	sess := &runner.Session{FirstBug: -1, Bugs: make(map[string]int)}
	tp := time.Now()
	pool := sched.NewPool()
	tr.pool += time.Since(tp)
	var cp *sched.Checkpoint
	for i := 0; i < cfg.Limit; i++ {
		info := fixedInfo
		if prof != nil && usesDelta(c.alg) {
			td := time.Now()
			if sessRng == nil {
				sessRng = rand.New(rand.NewSource(base))
			}
			var sel profile.Selection
			ok := false
			if tgt.Select != nil {
				sel, ok = tgt.Select(prof, sessRng)
			} else {
				sel, ok = prof.SelectSingleVar(sessRng)
			}
			if ok {
				info = prof.Instantiate(sel)
			} else {
				info = prof.Instantiate(prof.SelectAll())
			}
			tr.delta += time.Since(td)
		}
		opts := sched.Options{Base: sched.Base{Seed: base + int64(i)*2_000_033 + 1, ProgSeed: tgt.ProgSeed, MaxSteps: tgt.MaxSteps}, Info: info, TraceFilter: tgt.TraceFilter}
		var r *sched.Result
		te := time.Now()
		if i == 0 {
			r, cp = pool.RunPrefix(tgt.Prog, alg, opts)
			tr.prefix = time.Since(te)
			tr.hasPrefix = true
		} else {
			if cp != nil {
				tr.forced += cp.Decisions()
			}
			r = pool.RunFrom(cp, tgt.Prog, alg, opts)
		}
		tr.engine += time.Since(te)
		tr.schedules++
		tr.events += r.Steps
		if r.Threads >= slowThreads {
			tr.slow++
		}
		sess.Schedules++
		if r.Truncated {
			sess.Truncated++
		}
		if r.Buggy() {
			sess.Bugs[r.BugID()]++
			if sess.FirstBug == -1 {
				sess.FirstBug = i + 1 + plusOne
				if cfg.StopAtFirstBug {
					break
				}
			}
		}
	}
	tp = time.Now()
	pool.Close()
	tr.pool += time.Since(tp)
	tr.algT = timed.tally
	tr.total = time.Since(t0)
	return sess, nil
}
