package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"surw/internal/runner"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke mode checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// units maps each declared metric to its unit.
func units(ms []metricSpec) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// runSmoke runs every workload untraced and traced at a tiny size and
// fails on a metric BENCHMARK.json does not declare (or declares and the
// run did not print), a unit that is absent or differs, a value that is
// 0 or not finite, or any failed session.
func runSmoke(root string, seed int64) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var problems []string
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := units(spec.EndToEnd)
			if traced {
				want = units(spec.PerLayer)
			}
			t0 := time.Now()
			r, err := runWorkload(wl.Name, seed, 50*time.Millisecond, traced, root, true)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", wl.Name, traced, err)
			}
			logf("smoke %s trace=%v: %d sessions in %.1fs", wl.Name, traced, r.attempted, time.Since(t0).Seconds())
			problems = append(problems, r.audit(want)...)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("smoke failed:\n  %s", strings.Join(problems, "\n  "))
	}
	logf("smoke ok: %d workloads, traced and untraced", len(spec.Workloads))
	return nil
}

// audit lists how the report departs from the declared metrics.
func (r *report) audit(declared map[string]string) []string {
	var out []string
	where := fmt.Sprintf("%s (trace %v)", r.workload, r.traced)
	printed := e2eUnits
	if r.traced {
		printed = layerUnits()
	}
	for _, k := range sortedKeys(r.metrics) {
		v := r.metrics[k]
		u, ok := declared[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: metric %s is not in BENCHMARK.json", where, k))
		case u == "" || printed[k] == "":
			out = append(out, fmt.Sprintf("%s: metric %s has no unit", where, k))
		case u != printed[k]:
			out = append(out, fmt.Sprintf("%s: metric %s prints unit %q, BENCHMARK.json says %q", where, k, printed[k], u))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			out = append(out, fmt.Sprintf("%s: metric %s is %v", where, k, v))
		}
	}
	for _, k := range sortedKeys(declared) {
		if _, ok := r.metrics[k]; !ok {
			out = append(out, fmt.Sprintf("%s: declared metric %s was not printed", where, k))
		}
	}
	if r.failed != 0 {
		out = append(out, fmt.Sprintf("%s: error_rate %d/%d: %v", where, r.failed, r.attempted, r.firstErr))
	}
	return out
}

// regenDigests recomputes the digest of every session the workloads can
// run, through runner.RunSession, and writes the table to path.
func regenDigests(path string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Committed per-session result digests of the benchmark workloads.\n")
	fmt.Fprintf(&b, "# Regenerate with: bash perfbench/run.sh --regen-digests\n")
	fmt.Fprintf(&b, "# Row: target algorithm, then one digest per session index 0..%d.\n", digestRounds-1)
	for _, name := range workloadNames {
		w, err := buildGrid(name, benchBudgets)
		if err != nil {
			return err
		}
		rows := make([][]uint32, len(w.cells))
		for i := range rows {
			rows[i] = make([]uint32, digestRounds)
		}
		// digestRounds whole rounds visit every (cell, session index) once,
		// so each row element is written by exactly one slot.
		f := newFeeder(w, 0, len(w.cells)*digestRounds, true, func() bool { return true })
		p := dispatchLocal(w, f, runtime.NumCPU(), func(u unit) (*runner.Session, error) {
			s, err := w.runSession(u)
			if err == nil {
				rows[u.cell][u.session] = sessionDigest(s)
			}
			return s, err
		})
		if err := p.firstError(); err != nil {
			return err
		}
		fmt.Fprintf(&b, "[%s]\n", name)
		for i := range w.cells {
			fmt.Fprintf(&b, "%s", cellName(&w.cells[i]))
			for _, d := range rows[i] {
				fmt.Fprintf(&b, " %08x", d)
			}
			b.WriteByte('\n')
		}
		logf("digests: %s: %d cells x %d sessions", name, len(w.cells), digestRounds)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
