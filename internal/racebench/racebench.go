// Package racebench synthesizes the RaceBenchData-style suite of Table 2:
// fifteen base programs, each with 100 seeded concurrency bugs injected at
// pseudo-random sites. RaceBench itself injects synthetic bugs into PARSEC/
// SPLASH bases; lacking those code bases, this package also synthesizes the
// bases, preserving the properties the paper says matter for the scheduling
// algorithms: long traces, bugs of depth up to ~10, schedule-dependent
// event counts (task-stealing bases), and early-crash truncation of
// observed counts.
//
// Bug kinds mirror RaceBench's: atomicity violations (a probe landing
// inside another thread's open window), order violations (a use reached
// before its init), ordered chains of depth d (the high-depth bugs that
// defeat PCT), and lock-order inversions (detected at the would-deadlock
// interleaving and attributed to their bug ID).
package racebench

import (
	"fmt"
	"math/rand"

	"surw/internal/objname"
	"surw/internal/profile"
	"surw/internal/runner"
	"surw/internal/sched"
)

// BugKind classifies injected bugs.
type BugKind uint8

// The RaceBench bug vocabulary.
const (
	AtomicityViolation BugKind = iota
	OrderViolation
	Chain
	LockInversion
)

func (k BugKind) String() string {
	switch k {
	case AtomicityViolation:
		return "atomicity"
	case OrderViolation:
		return "order"
	case Chain:
		return "chain"
	case LockInversion:
		return "lock-inversion"
	}
	return "unknown"
}

// step pins one role of a bug to the k-th work item a thread processes.
type step struct {
	bug  int
	role int
}

// bug is one injected defect.
type bug struct {
	id    string
	kind  BugKind
	depth int // chain length for Chain bugs, otherwise 2
	width int // atomicity window width in events
	lockA int
	lockB int
}

// Base is one generated base program with its injected bugs.
type Base struct {
	// Name is the Table 2 row ("blackscholes", ...); Partial marks the
	// paper's selectively instrumented targets (leaner noise).
	Name    string
	Threads int
	// Items is the number of work items per thread (static patterns) or
	// the per-thread cap (task pattern).
	Items int
	// Locals is the per-item count of thread-local noise events.
	Locals int
	// Shared is the number of shared accumulator variables.
	Shared int
	// Pattern is "data" (static partition, global accumulators), "pipe"
	// (neighbor-coupled stages) or "task" (shared work queue — the
	// schedule-dependent event counts of §7).
	Pattern string
	Partial bool
	Seed    int64

	bugs    []bug
	actions map[[2]int][]step // (thread, item) -> bug steps, ordered by role
}

// NumBugs is the number of bugs injected per base program.
const NumBugs = 100

// Generate builds the base program and injects NumBugs bugs from its seed.
func Generate(name string, threads, items, locals, shared int, pattern string, partial bool, seed int64) *Base {
	b := &Base{
		Name: name, Threads: threads, Items: items, Locals: locals,
		Shared: shared, Pattern: pattern, Partial: partial, Seed: seed,
		actions: make(map[[2]int][]step),
	}
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < NumBugs; j++ {
		bg := bug{id: fmt.Sprintf("%s-bug%03d", name, j), depth: 2, width: 1 + rng.Intn(2)}
		switch p := rng.Float64(); {
		case p < 0.40:
			bg.kind = AtomicityViolation
		case p < 0.75:
			bg.kind = OrderViolation
		case p < 0.93:
			bg.kind = Chain
			bg.depth = 3 + rng.Intn(8) // depth 3..10
		default:
			bg.kind = LockInversion
			bg.lockA = rng.Intn(4)
			bg.lockB = (bg.lockA + 1 + rng.Intn(3)) % 4
		}
		b.placeSites(rng, &bg, j)
		b.bugs = append(b.bugs, bg)
	}
	return b
}

// placeSites assigns each step of a bug to a distinct (thread, item) slot.
func (b *Base) placeSites(rng *rand.Rand, bg *bug, idx int) {
	pick := func(minItem int) (int, int) {
		t := rng.Intn(b.Threads)
		lo := minItem
		if lo >= b.Items {
			lo = b.Items - 1
		}
		return t, lo + rng.Intn(b.Items-lo)
	}
	switch bg.kind {
	case OrderViolation:
		// The init site sits early in its thread's work and the use site
		// much later in another's, so the use-before-init reordering that
		// triggers the bug is a genuinely rare interleaving.
		tInit, iInit := rng.Intn(b.Threads), rng.Intn(3)
		tUse := (tInit + 1 + rng.Intn(b.Threads-1)) % b.Threads
		iUse := iInit + b.Items/3 + rng.Intn(b.Items/2)
		if iUse >= b.Items {
			iUse = b.Items - 1
		}
		b.addStep(tInit, iInit, idx, 0)
		b.addStep(tUse, iUse, idx, 1)
	case Chain:
		// d steps on random threads within a narrow item band. Out-of-order
		// execution resets the chain (runStep), so triggering needs the
		// steps interleaved in exactly chain order — the high-depth,
		// close-proximity pattern that defeats PCT and run-heavy samplers.
		item := rng.Intn(b.Items - 1)
		for r := 0; r < bg.depth; r++ {
			t := rng.Intn(b.Threads)
			b.addStep(t, item+rng.Intn(2), idx, r)
		}
	default: // AtomicityViolation, LockInversion: two overlapping windows
		t1, i1 := pick(0)
		t2 := (t1 + 1 + rng.Intn(b.Threads-1)) % b.Threads
		spread := i1 - 4 + rng.Intn(9)
		if spread < 0 {
			spread = 0
		}
		if spread >= b.Items {
			spread = b.Items - 1
		}
		b.addStep(t1, i1, idx, 0)
		b.addStep(t2, spread, idx, 1)
	}
}

func (b *Base) addStep(t, i, bugIdx, role int) {
	key := [2]int{t, i}
	b.actions[key] = append(b.actions[key], step{bug: bugIdx, role: role})
}

// Bugs returns the injected bug IDs.
func (b *Base) Bugs() []string {
	out := make([]string, len(b.bugs))
	for i, bg := range b.bugs {
		out[i] = bg.id
	}
	return out
}

// Object names, formatted once per process on first use (never in
// Generate or Target, which are set-up cost): Prog runs every schedule.
var (
	stateNames  = objname.New("bugstate", NumBugs)
	intentNames = objname.New("bugintent", NumBugs)
	lockNames   = objname.New("lock", 4)
	sharedNames = objname.New("g", 16)
	localNames  = objname.New("local", 16)
)

// Prog returns the schedulable program.
func (b *Base) Prog() func(*sched.Thread) {
	return func(t *sched.Thread) {
		state := make([]*sched.Var, len(b.bugs))
		intent := make([]*sched.Var, len(b.bugs))
		for j := range b.bugs {
			state[j] = t.NewVar(stateNames.Name(j), 0)
			intent[j] = t.NewVar(intentNames.Name(j), 0)
		}
		locks := make([]*sched.Mutex, 4)
		for i := range locks {
			locks[i] = t.NewMutex(lockNames.Name(i))
		}
		g := make([]*sched.Var, b.Shared)
		for i := range g {
			g[i] = t.NewVar(sharedNames.Name(i), 0)
		}
		queue := t.NewVar("queue", 0) // task pattern work counter

		handles := make([]*sched.Handle, b.Threads)
		for ti := range handles {
			ti := ti
			local := t.NewVar(localNames.Name(ti), 0)
			handles[ti] = t.Go(func(w *sched.Thread) {
				for k := 0; k < b.Items; k++ {
					if b.Pattern == "task" {
						// Dynamic work assignment: event counts depend on
						// the schedule, as in the paper's §7 discussion.
						q := queue.Add(w, 1)
						if q > int64(b.Threads*b.Items*3/4) {
							return
						}
						// Task sizes vary with the draw order, so traces are
						// schedule-dependent in length, not just in shape.
						for n := int64(0); n < q%3; n++ {
							local.Add(w, 1)
						}
					}
					b.processItem(w, ti, k, local, g, state, intent, locks)
				}
			})
		}
		t.JoinAll(handles...)
	}
}

func (b *Base) processItem(w *sched.Thread, ti, k int, local *sched.Var,
	g []*sched.Var, state, intent []*sched.Var, locks []*sched.Mutex) {
	noise := b.Locals
	if b.Partial {
		noise = (noise + 1) / 2 // selectively instrumented: leaner traces
	}
	for n := 0; n < noise; n++ {
		local.Add(w, 1)
	}
	switch b.Pattern {
	case "pipe":
		g[ti%b.Shared].Add(w, 1)
		g[(ti+1)%b.Shared].Add(w, 1)
	default:
		g[(ti*31+k*7)%b.Shared].Add(w, 1)
	}
	for _, s := range b.actions[[2]int{ti, k}] {
		b.runStep(w, s.bug, s.role, local, state, intent, locks)
	}
}

// runStep executes one role of one injected bug.
func (b *Base) runStep(w *sched.Thread, bugIdx, role int, local *sched.Var,
	state, intent []*sched.Var, locks []*sched.Mutex) {
	bg := &b.bugs[bugIdx]
	st := state[bugIdx]
	switch bg.kind {
	case AtomicityViolation:
		if role == 0 {
			st.Store(w, 1) // open the non-atomic window
			for n := 0; n < bg.width; n++ {
				local.Add(w, 1)
			}
			st.Store(w, 0)
		} else if st.Load(w) == 1 {
			w.Fail(bg.id) // probe landed inside the window
		}
	case OrderViolation:
		if role == 0 {
			st.Store(w, 1) // init
		} else if st.Load(w) == 0 {
			w.Fail(bg.id) // used before initialized
		}
	case Chain:
		// Each role runs exactly once per schedule; the chain completes
		// only if the roles execute in exact order, which with all sites
		// packed into a two-item band needs a precise cross-thread
		// alternation rather than any blocky order.
		if v := st.Load(w); role == bg.depth-1 && v == int64(bg.depth-1) {
			w.Fail(bg.id)
		} else if v == int64(role) {
			st.Store(w, int64(role+1))
		}
	case LockInversion:
		la, lb := locks[bg.lockA], locks[bg.lockB]
		it := intent[bugIdx]
		if role == 1 {
			la, lb = lb, la
		}
		la.Lock(w)
		it.Add(w, 1)
		if !lb.TryLock(w) {
			if it.Load(w) == 2 {
				// Both windows hold one lock and want the other: the
				// inversion would deadlock. Attribute it to this bug.
				w.Fail(bg.id)
			}
		} else {
			lb.Unlock(w)
		}
		it.Add(w, -1)
		la.Unlock(w)
	}
}

// Target wraps the base as a runner target with the paper's RaceBench
// instantiation of Δ: a random memory region with combined access counts
// above a threshold.
func (b *Base) Target() runner.Target {
	return runner.Target{
		Name:     "RaceBench/" + b.Name,
		Prog:     b.Prog(),
		MaxSteps: 500_000,
		Select: func(p *profile.Profile, rng *rand.Rand) (profile.Selection, bool) {
			return p.SelectRegion(rng, RegionThreshold)
		},
	}
}

// RegionThreshold is the combined-access-count threshold for Δ regions.
const RegionThreshold = 48

// Suite returns the fifteen Table 2 base programs. Thread counts, trace
// lengths and instrumentation leanness loosely follow the originals'
// relative scale; a * in the paper (partial instrumentation) maps to
// Partial here.
func Suite() []*Base {
	return []*Base{
		Generate("blackscholes", 4, 16, 6, 8, "data", false, 101),
		Generate("bodytrack", 6, 14, 5, 10, "pipe", false, 102),
		Generate("canneal", 6, 16, 5, 12, "data", false, 103),
		Generate("cholesky", 8, 12, 4, 12, "task", true, 104),
		Generate("dedup", 8, 14, 5, 10, "pipe", false, 105),
		Generate("ferret", 8, 14, 5, 10, "pipe", false, 106),
		Generate("fluidanimate", 6, 14, 4, 10, "data", true, 107),
		Generate("pigz", 4, 18, 6, 8, "pipe", false, 108),
		Generate("raytrace", 6, 14, 6, 10, "task", false, 109),
		Generate("raytrace2", 6, 14, 3, 10, "task", true, 110),
		Generate("streamcluster", 8, 14, 5, 12, "data", false, 111),
		Generate("volrend", 4, 14, 6, 8, "task", false, 112),
		Generate("water_nsquared", 4, 16, 6, 8, "data", false, 113),
		Generate("water_spatial", 4, 16, 5, 8, "data", false, 114),
		Generate("x264", 8, 14, 6, 10, "pipe", false, 115),
	}
}
