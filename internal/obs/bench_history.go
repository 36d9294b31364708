package obs

// Benchmark trajectory tooling: BENCH_obs.json is the latest run's parsed
// results, BENCH_history.jsonl is the append-only trail of every `make
// bench` (one timestamped record per run), and CompareBench is the
// regression gate between any two parsed result sets — ci.sh uses it to
// fail a branch whose schedules/s dropped more than the tolerance against
// the committed baseline.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Machine identifies where and from what a benchmark snapshot was
// measured, so a number is never read without its machine.
type Machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit and Dirty come from the build's VCS stamp ("unknown" when
	// the toolchain recorded none; `go run -buildvcs=true` records it).
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
}

// MachineStamp describes the running process's machine and build.
func MachineStamp() Machine {
	m := Machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value
			}
		}
	}
	return m
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// BenchSnapshot is the BENCH_obs.json shape written by `surwobs
// -bench2json`: the parsed results and the machine they ran on.
type BenchSnapshot struct {
	Machine Machine       `json:"machine"`
	Results []BenchResult `json:"results"`
}

// ReadBenchJSON loads the results of a parsed benchmark file: a
// BenchSnapshot, or a bare JSON array of BenchResult as written before
// snapshots carried their machine.
func ReadBenchJSON(path string) ([]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []BenchResult
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		err = json.Unmarshal(data, &results)
	} else {
		var snap BenchSnapshot
		err = json.Unmarshal(data, &snap)
		results = snap.Results
	}
	if err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("obs: %s holds no benchmark results", path)
	}
	return results, nil
}

// BenchRecord is one BENCH_history.jsonl entry: the results of a single
// `make bench` run plus its timestamp and machine.
type BenchRecord struct {
	// Time is the run's RFC 3339 UTC timestamp.
	Time    string        `json:"time"`
	Machine *Machine      `json:"machine,omitempty"`
	Results []BenchResult `json:"results"`
}

// AppendBenchRecord appends the record as one JSON line to the history
// file, creating it on first use. Append-only: history is a trajectory,
// never a snapshot, so nothing here truncates.
func AppendBenchRecord(path string, rec BenchRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("obs: append %s: %w", path, err)
	}
	return f.Close()
}

// ReadBenchHistory loads every record of a BENCH_history.jsonl file in
// append order.
func ReadBenchHistory(path string) ([]BenchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []BenchRecord
	dec := json.NewDecoder(f)
	for dec.More() {
		var rec BenchRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("obs: parse %s record %d: %w", path, len(out), err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// BenchComparison is one benchmark's old-versus-new value of a
// higher-is-better metric.
type BenchComparison struct {
	Name string
	Old  float64
	New  float64
	// Delta is the fractional change; -0.12 means 12% slower.
	Delta float64
	// Regressed marks a drop beyond the comparison's tolerance.
	Regressed bool
}

// CompareBench compares a higher-is-better metric (e.g. "schedules/s")
// between two parsed benchmark sets, flagging every shared benchmark whose
// new value dropped by more than tolerance (a fraction: 0.10 allows a 10%
// drop). Benchmarks missing the metric on either side are skipped — but an
// empty intersection is an error, so a renamed benchmark or an empty file
// cannot silently pass the gate.
func CompareBench(before, after []BenchResult, metric string, tolerance float64) ([]BenchComparison, error) {
	old := make(map[string]float64, len(before))
	for _, br := range before {
		if v, ok := br.Metrics[metric]; ok {
			old[br.Name] = v
		}
	}
	var out []BenchComparison
	for _, br := range after {
		nv, ok := br.Metrics[metric]
		if !ok {
			continue
		}
		ov, ok := old[br.Name]
		if !ok {
			continue
		}
		c := BenchComparison{Name: br.Name, Old: ov, New: nv}
		if ov > 0 {
			c.Delta = (nv - ov) / ov
			c.Regressed = c.Delta < -tolerance
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: no benchmark carries metric %q on both sides", metric)
	}
	return out, nil
}
