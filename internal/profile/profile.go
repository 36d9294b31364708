// Package profile implements the paper's profiling phase (§3.6, §4.1): a
// small number of census runs of the program under a baseline scheduler
// that record per-thread event counts, the spawn tree, and a census of
// shared objects. From a Profile, the Δ-selection heuristics produce the
// interesting-event subset and the per-thread Δ-counts that SURW takes as
// input.
package profile

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"surw/internal/core"
	"surw/internal/sched"
)

// ObjStat summarizes one shared object across the census runs.
type ObjStat struct {
	Name     string
	Kind     sched.ObjKind
	Hash     uint64
	Accesses int // total counted events on the object (averaged over runs)
	Writes   int // write-classified events (averaged over runs)
	Threads  int // distinct logical threads that touched it
	Birth    int // creation rank (proxy for memory adjacency)
}

// Profile is the output of Collect.
type Profile struct {
	// Info carries thread paths, the spawn tree, per-thread total event
	// counts and the total event count; Interesting is unset until a
	// selection is instantiated.
	Info *sched.ProgramInfo
	// Objs is the shared-object census sorted by creation rank.
	Objs []ObjStat

	// perThread[key{lid,kind,objHash}] = count, for recomputing per-thread
	// interesting counts under any Δ predicate.
	perThread map[countKey]int
	runs      int
	// shared caches sharedVars, computed once when Collect finalizes Objs:
	// the selection heuristics consult it every schedule.
	shared []ObjStat
}

type countKey struct {
	lid  int
	kind sched.OpKind
	obj  uint64
}

// Options configures Collect. The embedded sched.Base carries the shared
// Seed (census scheduler, a random walk), ProgSeed (must match the later
// testing runs for the counts to be meaningful) and MaxSteps fields.
type Options struct {
	sched.Base
	// Runs is the number of census runs to average (default 1, as in the
	// paper's single profiling run).
	Runs int
}

// normalized applies the profiling defaults on top of the shared ones.
func (o Options) normalized() Options {
	o.Base = o.Base.Normalized()
	if o.Runs <= 0 {
		o.Runs = 1
	}
	return o
}

// census records events during profiling runs while delegating scheduling
// decisions to a random walk.
type census struct {
	inner   sched.Algorithm
	info    *sched.ProgramInfo
	objs    map[uint64]*ObjStat
	birth   int
	perRun  map[countKey]int
	lidSeen []int // tid -> lid for the current run
}

func (c *census) Name() string { return "census" }

func (c *census) Begin(info *sched.ProgramInfo, rng *rand.Rand) {
	c.inner.Begin(info, rng)
	c.lidSeen = c.lidSeen[:0]
}

func (c *census) Next(st *sched.State) sched.ThreadID { return c.inner.Next(st) }

func (c *census) lid(st *sched.State, tid sched.ThreadID) int {
	for len(c.lidSeen) <= tid {
		t := len(c.lidSeen)
		path := st.Path(t)
		c.lidSeen = append(c.lidSeen, c.info.AddThread(path, parentPath(path)))
	}
	return c.lidSeen[tid]
}

func parentPath(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return ""
}

func (c *census) Observe(ev sched.Event, st *sched.State) {
	c.inner.Observe(ev, st)
	lid := c.lid(st, ev.TID)
	c.info.Events[lid]++
	c.info.TotalEvents++
	if ev.Obj != 0 {
		os, ok := c.objs[ev.ObjHash]
		if !ok {
			os = &ObjStat{
				Name:  st.ObjName(ev.Obj),
				Kind:  st.ObjKind(ev.Obj),
				Hash:  ev.ObjHash,
				Birth: c.birth,
			}
			c.birth++
			c.objs[ev.ObjHash] = os
		}
		os.Accesses++
		if ev.Kind.IsWrite() {
			os.Writes++
		}
		c.perRun[countKey{lid: lid, kind: ev.Kind, obj: ev.ObjHash}]++
	}
}

// Collect runs the program opts.Runs times under a random walk and returns
// the averaged profile. Runs that crash still contribute their partial
// counts (the paper's RaceBench discussion notes exactly this hazard); an
// error is returned only if every run was truncated by the step budget.
func Collect(prog func(*sched.Thread), opts Options) (*Profile, error) {
	opts = opts.normalized()
	runs := opts.Runs
	p := &Profile{
		Info:      sched.NewProgramInfo(),
		perThread: make(map[countKey]int),
		runs:      runs,
	}
	c := &census{
		inner:  core.NewRandomWalk(),
		info:   p.Info,
		objs:   make(map[uint64]*ObjStat),
		perRun: make(map[countKey]int),
	}
	allTruncated := true
	threadTouched := make(map[countKey]bool)
	for r := 0; r < runs; r++ {
		base := opts.Base
		base.Seed += int64(r) * 7919
		res := sched.Run(prog, c, sched.Options{Base: base})
		if !res.Truncated {
			allTruncated = false
		}
	}
	for k, v := range c.perRun {
		p.perThread[k] = (v + runs - 1) / runs
		threadTouched[countKey{lid: k.lid, obj: k.obj}] = true
	}
	// Average the per-thread totals over the runs.
	for i := range p.Info.Events {
		p.Info.Events[i] = (p.Info.Events[i] + runs - 1) / runs
	}
	p.Info.TotalEvents = (p.Info.TotalEvents + runs - 1) / runs
	for _, os := range c.objs {
		os.Accesses = (os.Accesses + runs - 1) / runs
		os.Writes = (os.Writes + runs - 1) / runs
		for k := range threadTouched {
			if k.obj == os.Hash {
				os.Threads++
			}
		}
		p.Objs = append(p.Objs, *os)
	}
	sort.Slice(p.Objs, func(i, j int) bool { return p.Objs[i].Birth < p.Objs[j].Birth })
	for _, o := range p.Objs {
		if o.Kind == sched.ObjVar && o.Threads >= 2 {
			p.shared = append(p.shared, o)
		}
	}
	if allTruncated {
		return p, errors.New("profile: every census run hit the step budget")
	}
	return p, nil
}

// Selection is a chosen interesting-event subset Δ.
type Selection struct {
	// Desc describes the selection for reports.
	Desc string
	// Objects lists the selected object names (empty for custom or
	// all-event selections).
	Objects []string
	// Interesting is the Δ predicate; nil means Δ = Γ.
	Interesting func(sched.Event) bool
}

// AccessTo builds a Δ predicate matching shared-memory accesses to the
// named variables.
func AccessTo(names ...string) func(sched.Event) bool {
	set := make(map[uint64]bool, len(names))
	for _, n := range names {
		set[sched.HashName(n)] = true
	}
	return func(ev sched.Event) bool {
		return ev.Kind.IsMemAccess() && set[ev.ObjHash]
	}
}

// LockAcquireOf builds a Δ predicate matching acquisitions of the named
// mutexes (the §3.5 critical-section entrance strategy).
func LockAcquireOf(names ...string) func(sched.Event) bool {
	set := make(map[uint64]bool, len(names))
	for _, n := range names {
		set[sched.HashName(n)] = true
	}
	return func(ev sched.Event) bool {
		return (ev.Kind == sched.OpLock || ev.Kind == sched.OpWakeLock) && set[ev.ObjHash]
	}
}

// sharedVars returns the census vars touched by at least two threads,
// sorted by creation rank. The slice is shared: callers must not modify it.
func (p *Profile) sharedVars() []ObjStat { return p.shared }

// SelectSingleVar implements the paper's SCTBench/ConVul instantiation:
// Δ is every access to a single shared variable, drawn with probability
// proportional to its total access count. Returns ok=false when the census
// saw no shared variable.
func (p *Profile) SelectSingleVar(rng *rand.Rand) (Selection, bool) {
	shared := p.sharedVars()
	if len(shared) == 0 {
		return Selection{}, false
	}
	total := 0
	for _, o := range shared {
		total += o.Accesses
	}
	x := rng.Intn(total) // total > 0: census objects have >= 1 access
	var pick ObjStat
	for _, o := range shared {
		if x < o.Accesses {
			pick = o
			break
		}
		x -= o.Accesses
	}
	return Selection{
		Desc:        fmt.Sprintf("accesses to var %q", pick.Name),
		Objects:     []string{pick.Name},
		Interesting: AccessTo(pick.Name),
	}, true
}

// SelectRegion implements the RaceBench instantiation: Δ is every access to
// a random "memory region" — a run of consecutively created shared
// variables — grown until the combined access count reaches minAccesses.
func (p *Profile) SelectRegion(rng *rand.Rand, minAccesses int) (Selection, bool) {
	shared := p.sharedVars()
	if len(shared) == 0 {
		return Selection{}, false
	}
	start := rng.Intn(len(shared))
	var names []string
	sum := 0
	for i := start; i < len(shared) && (sum < minAccesses || len(names) == 0); i++ {
		names = append(names, shared[i].Name)
		sum += shared[i].Accesses
	}
	for i := start - 1; i >= 0 && sum < minAccesses; i-- {
		names = append(names, shared[i].Name)
		sum += shared[i].Accesses
	}
	return Selection{
		Desc:        fmt.Sprintf("region of %d vars (%d accesses)", len(names), sum),
		Objects:     names,
		Interesting: AccessTo(names...),
	}, true
}

// SelectLockEntrances marks every mutex acquisition as interesting (§3.5).
func (p *Profile) SelectLockEntrances() (Selection, bool) {
	var names []string
	for _, o := range p.Objs {
		if o.Kind == sched.ObjMutex {
			names = append(names, o.Name)
		}
	}
	if len(names) == 0 {
		return Selection{}, false
	}
	return Selection{
		Desc:        fmt.Sprintf("acquisitions of %d locks", len(names)),
		Objects:     names,
		Interesting: LockAcquireOf(names...),
	}, true
}

// SelectAll marks every event interesting (Δ = Γ, the N-S configuration).
func (p *Profile) SelectAll() Selection {
	return Selection{Desc: "all events (Δ = Γ)"}
}

// SelectCustom wraps an expert-provided predicate (the LightFTP mode).
func SelectCustom(desc string, pred func(sched.Event) bool) Selection {
	return Selection{Desc: desc, Interesting: pred}
}

// Instantiate produces the ProgramInfo to hand to an algorithm: the profiled
// counts plus the selection's Δ predicate and the per-thread Δ-counts
// implied by the census.
func (p *Profile) Instantiate(sel Selection) *sched.ProgramInfo {
	info := p.Info.Clone()
	info.Interesting = sel.Interesting
	info.DeltaDesc = sel.Desc
	if sel.Interesting == nil {
		copy(info.InterestingEvents, info.Events)
		return info
	}
	for i := range info.InterestingEvents {
		info.InterestingEvents[i] = 0
	}
	for k, n := range p.perThread {
		ev := sched.Event{Kind: k.kind, ObjHash: k.obj}
		if sel.Interesting(ev) {
			info.InterestingEvents[k.lid] += n
		}
	}
	return info
}
