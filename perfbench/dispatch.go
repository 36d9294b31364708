package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"surw/internal/runner"
)

// minUnits floors every untraced run, however short or slow: a p90 needs
// at least 100 samples.
const minUnits = 110

// outcome is one finished session as the benchmark saw it.
type outcome struct {
	session   time.Duration // runner.RunSession wall time
	schedules int
	bugs      int // distinct bug IDs the session found
	ok        bool
	err       error
}

// phase is the tally of one closed-loop phase.
type phase struct {
	outcomes []outcome
	wall     time.Duration
	busy     time.Duration // slot time spent inside sessions
	slots    int
	cpu      time.Duration
	mallocs  uint64
}

func (p *phase) attempted() int { return len(p.outcomes) }

func (p *phase) failed() int {
	n := 0
	for _, o := range p.outcomes {
		if !o.ok {
			n++
		}
	}
	return n
}

func (p *phase) schedules() int {
	n := 0
	for _, o := range p.outcomes {
		n += o.schedules
	}
	return n
}

func (p *phase) bugs() int {
	n := 0
	for _, o := range p.outcomes {
		n += o.bugs
	}
	return n
}

func (p *phase) sessionMs() []float64 {
	xs := make([]float64, 0, len(p.outcomes))
	for _, o := range p.outcomes {
		if o.ok {
			xs = append(xs, ms(o.session))
		}
	}
	return xs
}

// firstError returns the first session error, for the failure report.
func (p *phase) firstError() error {
	for _, o := range p.outcomes {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// sessionFunc runs one unit's session.
type sessionFunc func(u unit) (*runner.Session, error)

// runSession is the untraced session path: the unit surwworker executes.
func (w *workload) runSession(u unit) (*runner.Session, error) {
	c := &w.cells[u.cell]
	return runner.RunSession(bgCtx, c.tgt, c.alg, c.cfg, u.session)
}

// dispatchLocal runs units from f over slots goroutines, closed-loop: a
// slot takes its next unit only when its previous session is done.
func dispatchLocal(w *workload, f *feeder, slots int, run sessionFunc) *phase {
	type slotTally struct {
		outs []outcome
		busy time.Duration
	}
	tallies := make([]slotTally, slots)
	mallocs0 := readMallocs()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(slots)
	for i := range tallies {
		go func(t *slotTally) {
			defer wg.Done()
			for {
				u, ok := f.next()
				if !ok {
					return
				}
				t0 := time.Now()
				sess, err := run(u)
				d := time.Since(t0)
				o := outcome{session: d, err: err}
				if err == nil {
					o.schedules, o.bugs = sess.Schedules, len(sess.Bugs)
					o.ok = w.check(u, sess)
					if !o.ok {
						o.err = fmt.Errorf("%s session %d: result differs from the committed digest", cellName(&w.cells[u.cell]), u.session)
					}
				}
				t.busy += d
				t.outs = append(t.outs, o)
			}
		}(&tallies[i])
	}
	wg.Wait()
	p := &phase{wall: time.Since(start), slots: slots, cpu: cpuTime() - cpu0}
	p.mallocs = readMallocs() - mallocs0
	for _, t := range tallies {
		p.outcomes = append(p.outcomes, t.outs...)
		p.busy += t.busy
	}
	return p
}

func readMallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// deadline returns a stop predicate that turns true after d.
func deadline(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
