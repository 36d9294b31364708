package main

// The budget report (--budget-report): how the session budgets shape the
// work a workload measures. For each workload, at the benchmark's budgets
// and at experiments.DefaultScale's, it runs one round (session 0 of every
// cell) through the traced mirror over nproc slots and prints the round's
// wall time, the share of sessions that ran their whole budget, the share
// of session time those sessions take, and the census's share of session
// time.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"surw/internal/runner"
)

func budgetReport(out io.Writer) error {
	slots := runtime.NumCPU()
	fmt.Fprintf(out, "%-20s %-8s %6s %9s %9s %11s %11s\n",
		"workload", "budgets", "cells", "round_s", "capped", "capped_time", "census_time")
	sets := []struct {
		label string
		b     budgets
	}{{"bench", benchBudgets}, {"default", defaultBudgets()}}
	for _, name := range workloadNames {
		for _, set := range sets {
			w, err := buildGrid(name, set.b)
			if err != nil {
				return err
			}
			var (
				mu                  sync.Mutex
				total, capT, census time.Duration
				capped              int
			)
			f := newFeeder(w, 0, len(w.cells), true, func() bool { return true })
			p := dispatchLocal(w, f, slots, func(u unit) (*runner.Session, error) {
				c := &w.cells[u.cell]
				var tr sessionTrace
				s, err := mirrorSession(c, u.session, &tr)
				if err == nil {
					mu.Lock()
					total += tr.total
					census += tr.profile
					if s.Schedules >= c.cfg.Limit {
						capped++
						capT += tr.total
					}
					mu.Unlock()
				}
				return s, err
			})
			if err := p.firstError(); err != nil {
				return err
			}
			fmt.Fprintf(out, "%-20s %-8s %6d %9.2f %8.1f%% %10.1f%% %10.1f%%\n",
				name, set.label, len(w.cells), p.wall.Seconds(),
				100*float64(capped)/float64(len(w.cells)),
				100*float64(capT)/float64(total), 100*float64(census)/float64(total))
		}
	}
	return nil
}
