// Command perfbench is the repository's benchmark. It runs one workload
// through the system's public entry points — runner.RunSession, the
// remote coordinator and workers, and the campaign store — closed-loop for
// a fixed time, checks every session against committed result digests,
// and prints end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1) as the last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var bgCtx = context.Background()

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed    = flag.Int64("seed", 1, "workload seed: the order of the cells within each round")
		seconds = flag.Float64("seconds", 10, "measurement time")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
		root    = flag.String("root", ".", "checkout root (holds BENCHMARK.json; temporary files go under .bench_build)")
		smoke   = flag.Bool("smoke", false, "run every workload at a tiny size, traced and untraced, and check the output against BENCHMARK.json")
		regen   = flag.Bool("regen-digests", false, "recompute the committed digest table into perfbench/digests.txt")
		budget  = flag.Bool("budget-report", false, "report how the benchmark's session budgets and experiments.DefaultScale's shape each workload")
	)
	flag.Parse()
	var err error
	switch {
	case *regen:
		err = regenDigests(filepath.Join(*root, "perfbench", "digests.txt"))
	case *budget:
		err = budgetReport(os.Stdout)
	case *smoke:
		err = runSmoke(*root, *seed)
	default:
		var r *report
		r, err = runWorkload(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *root, false)
		if err == nil {
			err = r.print(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is one run's result.
type report struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]float64
	// undeclared are values that are not metrics of BENCHMARK.json,
	// because they read 0 on a healthy run; the detail record carries
	// them next to error_rate.
	undeclared map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the run's detail record (machine stamp included) and then
// the result line, which is always the last line.
func (r *report) print(out io.Writer) error {
	units := e2eUnits
	if r.traced {
		units = layerUnits()
	}
	ms := make(map[string]metricValue, len(r.metrics))
	for k, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (too few samples?)", k)
		}
		ms[k] = metricValue{Value: v, Unit: units[k]}
	}
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	detail := map[string]any{
		"workload": r.workload, "seed": r.seed, "trace": r.traced,
		"machine": machineStamp(), "error_rate": errRate, "metrics": ms,
	}
	if len(r.undeclared) > 0 {
		detail["undeclared"] = r.undeclared
	}
	if r.firstErr != nil {
		detail["first_error"] = r.firstErr.Error()
	}
	if err := json.NewEncoder(out).Encode(detail); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	})
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 101

// runWorkload sets the workload up, runs it, and returns its report.
func runWorkload(name string, seed int64, budget time.Duration, traced bool, root string, smoke bool) (*report, error) {
	slots := runtime.NumCPU()
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	// The digest table is the benchmark's, not the program's: it is parsed
	// once, outside the timed set-up.
	table, err := parseDigests(digestsFile)
	if err != nil {
		return nil, err
	}
	r := &report{workload: name, seed: seed, traced: traced, undeclared: make(map[string]float64)}
	if traced {
		w, err := loadWorkload(name, table)
		if err != nil {
			return nil, err
		}
		r.metrics, err = tracedRun(w, table, seed, budget, slots, tmp, r)
		return r, err
	}

	// Set-up: building the grid through the program's entry points
	// (targets, RaceBench generation, the plan), repeated from a collected
	// heap each time; the last grid is kept and gets its digest rows.
	var setups []float64
	var w *workload
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if w, err = buildGrid(name, benchBudgets); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.attach(table); err != nil {
		return nil, err
	}

	p := dispatchLocal(w, newFeeder(w, seed, minUnits, !smoke, deadline(budget)), slots, w.runSession)
	r.attempted, r.failed, r.firstErr = p.attempted(), p.failed(), p.firstError()
	r.metrics = map[string]float64{
		"schedules_per_s":     float64(p.schedules()) / p.wall.Seconds(),
		"cpu_s_per_bug":       ratio(p.cpu.Seconds(), float64(p.bugs())),
		"session_p50_ms":      pct(p.sessionMs(), 0.5),
		"session_p90_ms":      pct(p.sessionMs(), 0.9),
		"allocs_per_schedule": ratio(float64(p.mallocs), float64(p.schedules())),
		"max_rss_mb":          maxRSSMB(),
		"setup_s":             median(setups),
	}
	logf("%s: %d sessions (%d failed), %d schedules in %.2fs on %d slots",
		name, p.attempted(), p.failed(), p.schedules(), p.wall.Seconds(), slots)
	return r, nil
}

// e2eUnits are the end-to-end metrics of an untraced run.
var e2eUnits = map[string]string{
	"schedules_per_s":     "1/s",
	"cpu_s_per_bug":       "s",
	"session_p50_ms":      "ms",
	"session_p90_ms":      "ms",
	"allocs_per_schedule": "count",
	"max_rss_mb":          "MiB",
	"setup_s":             "s",
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
