package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"surw/internal/experiments"
	"surw/internal/racebench"
	"surw/internal/runner"
	"surw/internal/sctbench"
)

// Every cell has digestRounds session indices with committed result
// digests; a run visits them round by round and wraps around after the
// last one.
const (
	cfgSeed      = 1
	digestRounds = 24
)

// budgets are the schedule limits of one session of each workload's cells.
type budgets struct {
	sct       int // Table 4 targets but SafeStack
	safeStack int
	rb        int
	wp        int
}

// benchBudgets are the budgets the workloads run at: those of
// experiments.DefaultScale, except for the worker-pool cells.
var benchBudgets = func() budgets {
	b := defaultBudgets()
	b.wp = wpLimit
	return b
}()

// wpLimit is the worker-pool cells' budget. An untraced run must finish
// minUnits sessions, which is eight rounds of the 14 surwsync-pool cells;
// at DefaultScale's 2000 schedules one round takes 16-19 s on a 2-vCPU
// Xeon VM, at 200 about 2 s, so eight rounds fit in a 20 s run.
const wpLimit = 200

// defaultBudgets are experiments.DefaultScale's budgets (the worker-pool
// cells take its Limit, as an SCTPlan that opts into them would).
func defaultBudgets() budgets {
	sc := experiments.DefaultScale()
	return budgets{sct: sc.Limit, safeStack: sc.SafeStackLimit, rb: sc.RaceBenchLimit, wp: sc.Limit}
}

var workloadNames = []string{"sct-first-bug", "racebench-distinct", "surwsync-pool"}

// cell is one (target, algorithm, config) grid cell.
type cell struct {
	tgt runner.Target
	alg string
	cfg runner.Config
}

// key is the session key of session s of the cell.
func (c *cell) key(s int) runner.SessionKey { return runner.KeyFor(c.tgt, c.alg, c.cfg, s) }

// workload is a grid of cells plus the committed digest of every session
// the benchmark may run from it.
type workload struct {
	name    string
	cells   []cell
	digests [][]uint32 // [cell][session]
}

// unit is one session handed to a dispatch slot.
type unit struct {
	cell, session int
}

// loadWorkload builds the named workload's grid at the benchmark's
// budgets and attaches its rows of the parsed digest table.
func loadWorkload(name string, table digestTable) (*workload, error) {
	w, err := buildGrid(name, benchBudgets)
	if err != nil {
		return nil, err
	}
	return w, w.attach(table)
}

// attach sets the workload's committed digests from the parsed table.
func (w *workload) attach(table digestTable) error {
	rows, ok := table[w.name]
	if !ok {
		return fmt.Errorf("digests: no section %q", w.name)
	}
	w.digests = make([][]uint32, len(w.cells))
	for i := range w.cells {
		c := &w.cells[i]
		d, ok := rows[cellName(c)]
		if !ok || len(d) != digestRounds {
			return fmt.Errorf("digests: %s: no %d-session row for %s", w.name, digestRounds, cellName(c))
		}
		w.digests[i] = d
	}
	return nil
}

// buildGrid returns the workload's cells at budgets b in canonical order.
func buildGrid(name string, b budgets) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "sct-first-bug":
		byName := make(map[string]runner.Target)
		for _, t := range sctbench.Targets() {
			byName[t.Name] = t
		}
		sc := experiments.Scale{Seed: cfgSeed, Sessions: 1, Limit: b.sct, SafeStackLimit: b.safeStack}
		for _, k := range experiments.SCTPlan(sc) {
			w.cells = append(w.cells, cell{tgt: byName[k.Target], alg: k.Algorithm, cfg: configOf(k)})
		}
	case "racebench-distinct":
		for _, base := range racebench.Suite() {
			tgt := base.Target()
			for _, alg := range experiments.RBAlgorithms {
				w.cells = append(w.cells, cell{tgt: tgt, alg: alg, cfg: runner.Config{Limit: b.rb, Seed: cfgSeed}})
			}
		}
	case "surwsync-pool":
		for _, tgt := range sctbench.WorkerPoolTargets() {
			for _, alg := range experiments.SCTAlgorithms {
				w.cells = append(w.cells, cell{tgt: tgt, alg: alg, cfg: runner.Config{Limit: b.wp, Seed: cfgSeed}})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// configOf rebuilds a cell's runner config from a plan key, as a
// distributed worker does from a lease.
func configOf(k runner.SessionKey) runner.Config {
	return runner.Config{
		Limit: k.Limit, Seed: k.Seed, StopAtFirstBug: k.StopAtFirstBug,
		Coverage: k.Coverage, CoverageEvery: k.CoverageEvery, ProfileRuns: k.ProfileRuns,
	}
}

func cellName(c *cell) string { return c.tgt.Name + " " + c.alg }

// sessionDigest hashes the observable outcome of one session: FirstBug,
// Schedules, Truncated and the per-bug tallies.
func sessionDigest(s *runner.Session) uint32 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d", s.FirstBug, s.Schedules, s.Truncated)
	ids := make([]string, 0, len(s.Bugs))
	for id := range s.Bugs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "|%s=%d", id, s.Bugs[id])
	}
	v := h.Sum64()
	return uint32(v ^ v>>32)
}

// check reports whether a session's outcome matches the committed digest.
// Probe workloads, built outside the committed grids, have no digests and
// accept any outcome; their sessions are never counted as attempted.
func (w *workload) check(u unit, s *runner.Session) bool {
	if w.digests == nil {
		return s != nil
	}
	return s != nil && sessionDigest(s) == w.digests[u.cell][u.session%digestRounds]
}

// feeder hands out units round by round: every round visits each cell
// once, in an order drawn from the workload seed, and round r runs session
// index r (mod digestRounds) of every cell, so runs of equal length
// measure the same sessions whatever the seed. It stops at the
// first round boundary after the budget is spent and at least minUnits
// units were handed out (rounds=false stops at any unit instead).
type feeder struct {
	mu         sync.Mutex
	w          *workload
	rng        *rand.Rand
	perm       []int
	round, pos int
	given      int
	stopped    func() bool
	minUnits   int
	fullRounds bool
}

func newFeeder(w *workload, seed int64, minUnits int, fullRounds bool, stopped func() bool) *feeder {
	f := &feeder{
		w:          w,
		rng:        rand.New(rand.NewSource(seed)),
		minUnits:   minUnits,
		fullRounds: fullRounds,
		stopped:    stopped,
	}
	f.perm = f.rng.Perm(len(w.cells))
	return f
}

// next returns the next unit, or false when the phase is over.
func (f *feeder) next() (unit, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.given >= f.minUnits && (f.pos == 0 || !f.fullRounds) && f.stopped() {
		return unit{}, false
	}
	f.given++
	return f.advance(), true
}

// advance returns the unit at the cursor and moves past it. Caller holds
// f.mu.
func (f *feeder) advance() unit {
	u := unit{cell: f.perm[f.pos], session: f.round % digestRounds}
	if f.pos++; f.pos == len(f.perm) {
		f.pos = 0
		f.round++
		f.rng.Shuffle(len(f.perm), func(i, j int) { f.perm[i], f.perm[j] = f.perm[j], f.perm[i] })
	}
	return u
}

// plan returns the first n rounds of units without a stop rule: the fleet's
// lease plan.
func (f *feeder) plan(rounds int) []unit {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]unit, rounds*len(f.w.cells))
	for i := range out {
		out[i] = f.advance()
	}
	return out
}

//go:embed digests.txt
var digestsFile []byte

// digestTable maps workload name, then cell name, to the cell's digests.
type digestTable map[string]map[string][]uint32

// parseDigests reads the committed digest table: "[section]" headers
// followed by "<target> <alg> <hex>..." rows, one digest per session.
func parseDigests(data []byte) (digestTable, error) {
	out := make(digestTable)
	var cur map[string][]uint32
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]") {
			cur = make(map[string][]uint32)
			out[line[1:len(line)-1]] = cur
			continue
		}
		f := strings.Fields(line)
		if cur == nil || len(f) < 3 {
			return nil, fmt.Errorf("digests: line %d: malformed", n)
		}
		ds := make([]uint32, 0, len(f)-2)
		for _, h := range f[2:] {
			v, err := strconv.ParseUint(h, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("digests: line %d: %w", n, err)
			}
			ds = append(ds, uint32(v))
		}
		cur[f[0]+" "+f[1]] = ds
	}
	return out, sc.Err()
}
