// Command surwobs is the observability toolbelt that keeps ci.sh and the
// Makefile plain shell: it converts `go test -bench` output into the
// machine-readable BENCH_obs.json, enforces benchmark regression gates, and
// validates trace and flight-recorder artifacts.
//
// Usage:
//
//	go test -bench=. -benchmem . | surwobs -bench2json -out BENCH_obs.json
//	surwobs -gate 'BenchmarkPooledSchedule/pooled.allocs/op<=11' -in bench.txt
//	surwobs -bench2json -in bench.txt -bench-history BENCH_history.jsonl
//	surwobs -bench-compare [-tolerance 0.10] OLD.json NEW.json
//	surwobs -atlas results/atlas.json [-out atlas.svg]
//	surwobs -check-trace results/trace.json
//	surwobs -check-flight results/flight/flight_....json
//	surwobs -assemble-trace results/fleet.spans.jsonl [-out fleet.json]
//
// -gate may be repeated; gates read benchmark text from -in (or stdin) and
// the command exits non-zero on the first violated gate. -check-trace
// verifies a file is well-formed Chrome trace_event JSON as Perfetto
// expects; -check-flight verifies a flight dump parses and is marked
// reproduced. -assemble-trace reads a fleet span log (JSONL, one span per
// line, as written by surwbench -fleet-trace or surwworker -trace), groups
// the spans into distributed traces, and reports how many are complete —
// a single lease root with prefix-replay, session, and submit children
// spanning at least two tracks. It exits non-zero when no complete trace
// exists; with -out it also renders the spans as Chrome trace_event JSON
// (one Perfetto track per worker) for visual inspection.
//
// -bench2json stamps the snapshot with the machine it ran on (GOMAXPROCS,
// CPU count and model, Go version, and the commit when the build recorded
// one: `go run -buildvcs=true`). -bench-history appends the parsed results
// as one timestamped, machine-stamped JSONL record, growing the benchmark
// trajectory `make bench` maintains beside the BENCH_obs.json snapshot.
// -bench-compare OLD NEW reads two such snapshots and exits non-zero when
// any shared benchmark's schedules/s dropped by more than -tolerance
// (default 10%) — the ci.sh throughput gate. -atlas validates an
// exploration-atlas export (surwbench -atlas), prints each cell's
// cartography totals and uniformity verdict (ok / DRIFT / n/a), and with
// -out renders the full SVG atlas document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"surw/internal/atlas"
	"surw/internal/buildinfo"
	"surw/internal/obs"
)

// gateList collects repeated -gate flags.
type gateList []string

func (g *gateList) String() string     { return fmt.Sprint(*g) }
func (g *gateList) Set(s string) error { *g = append(*g, s); return nil }

func main() {
	var gates gateList
	var (
		bench2json = flag.Bool("bench2json", false, "parse `go test -bench` text from -in/stdin and emit JSON")
		in         = flag.String("in", "", "input file for -bench2json/-gate (default stdin)")
		out        = flag.String("out", "", "output file for -bench2json (default stdout)")
		checkTrace = flag.String("check-trace", "", "validate a Chrome trace_event JSON file")
		checkFl    = flag.String("check-flight", "", "validate a flight-recorder dump")
		assemble   = flag.String("assemble-trace", "", "assemble distributed traces from a span-log JSONL file and verify at least one is complete")
		atlasFile  = flag.String("atlas", "", "validate an atlas.json export, print per-cell cartography and drift verdicts; with -out, render the SVG atlas document")
		benchCmp   = flag.Bool("bench-compare", false, "compare two BENCH_obs.json files (args: OLD NEW); exit non-zero on a throughput regression beyond -tolerance")
		benchTol   = flag.Float64("tolerance", 0.10, "allowed fractional schedules/s drop for -bench-compare (0.10 = 10%)")
		benchHist  = flag.String("bench-history", "", "append the parsed -bench2json results as a timestamped record to this JSONL trajectory file")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Var(&gates, "gate", "benchmark regression gate 'name.metric<=value' (repeatable)")
	flag.Parse()
	if *version {
		fmt.Printf("surwobs %s\n", buildinfo.Get())
		return
	}

	switch {
	case *benchCmp:
		args := flag.Args()
		if len(args) != 2 {
			fatal(fmt.Errorf("-bench-compare wants exactly two arguments: OLD.json NEW.json"))
		}
		before, err := obs.ReadBenchJSON(args[0])
		if err != nil {
			fatal(err)
		}
		after, err := obs.ReadBenchJSON(args[1])
		if err != nil {
			fatal(err)
		}
		cmps, err := obs.CompareBench(before, after, "schedules/s", *benchTol)
		if err != nil {
			fatal(err)
		}
		regressed := 0
		for _, c := range cmps {
			verdict := "ok"
			if c.Regressed {
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Printf("surwobs: bench %s: %.0f -> %.0f schedules/s (%+.1f%%) %s\n",
				c.Name, c.Old, c.New, 100*c.Delta, verdict)
		}
		if regressed > 0 {
			fatal(fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% (%s vs %s)",
				regressed, 100**benchTol, args[1], args[0]))
		}

	case *atlasFile != "":
		data, err := os.ReadFile(*atlasFile)
		if err != nil {
			fatal(err)
		}
		var snap atlas.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *atlasFile, err))
		}
		if snap.Version != atlas.Version {
			fatal(fmt.Errorf("%s: atlas version %d, this build reads %d", *atlasFile, snap.Version, atlas.Version))
		}
		if len(snap.Cells) == 0 {
			fatal(fmt.Errorf("%s holds no atlas cells", *atlasFile))
		}
		for _, c := range snap.Cells {
			verdict := "n/a"
			if u := c.Uniformity; u != nil {
				verdict = fmt.Sprintf("uniformity p=%.3g ok", u.P)
				if u.Alarm {
					verdict = fmt.Sprintf("uniformity p=%.3g DRIFT", u.P)
				}
			}
			fmt.Printf("surwobs: atlas cell %s/%s: %d schedules, %d decisions, depth %d, %s\n",
				c.Target, c.Algorithm, c.Schedules, c.Decisions, c.MaxDepth, verdict)
		}
		if *out != "" {
			if err := os.WriteFile(*out, []byte(atlas.DocumentSVG(&snap)), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("surwobs: atlas SVG written to %s\n", *out)
		}

	case *assemble != "":
		spans, err := obs.ReadSpansFile(*assemble)
		if err != nil {
			fatal(err)
		}
		complete, total, firstErr := obs.CountComplete(spans)
		fmt.Printf("surwobs: %s: %d spans, %d traces, %d complete (lease→submit)\n",
			*assemble, len(spans), total, complete)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := obs.WriteSpanChromeTrace(f, spans); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("surwobs: Chrome trace written to %s\n", *out)
		}
		if complete == 0 {
			if firstErr != nil {
				fatal(fmt.Errorf("no complete distributed trace: %w", firstErr))
			}
			fatal(fmt.Errorf("no complete distributed trace in %s", *assemble))
		}

	case *checkTrace != "":
		f, err := os.Open(*checkTrace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := obs.ValidateChromeTrace(f); err != nil {
			fatal(err)
		}
		fmt.Printf("surwobs: %s is well-formed Chrome trace_event JSON\n", *checkTrace)

	case *checkFl != "":
		fr, err := obs.ReadFlight(*checkFl)
		if err != nil {
			fatal(err)
		}
		if !fr.Reproduced {
			fatal(fmt.Errorf("flight %s was not reproduced at capture time (nondeterministic target?)", *checkFl))
		}
		fmt.Printf("surwobs: flight %s: target %s alg %s bug %s fingerprint %s, %d trailing decisions\n",
			*checkFl, fr.Target, fr.Algorithm, fr.BugID, fr.Fingerprint, len(fr.LastDecisions))

	case *bench2json || *benchHist != "" || len(gates) > 0:
		r := io.Reader(os.Stdin)
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			r = f
		}
		results, err := obs.ParseBench(r)
		if err != nil {
			fatal(err)
		}
		if len(results) == 0 {
			fatal(fmt.Errorf("no benchmark result lines found in input"))
		}
		for _, g := range gates {
			if err := obs.CheckGate(g, results); err != nil {
				fatal(err)
			}
			fmt.Printf("surwobs: gate ok: %s\n", g)
		}
		machine := obs.MachineStamp()
		if *bench2json {
			w := io.Writer(os.Stdout)
			if *out != "" {
				f, err := os.Create(*out)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				w = f
			}
			if err := obs.WriteJSON(w, obs.BenchSnapshot{Machine: machine, Results: results}); err != nil {
				fatal(err)
			}
		}
		if *benchHist != "" {
			rec := obs.BenchRecord{Time: time.Now().UTC().Format(time.RFC3339), Machine: &machine, Results: results}
			if err := obs.AppendBenchRecord(*benchHist, rec); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "surwobs: bench record appended to %s\n", *benchHist)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "surwobs: %v\n", err)
	os.Exit(1)
}
