// Benchmarks regenerating each table and figure of the paper at a reduced
// default scale, plus micro-benchmarks of the substrate and ablation
// benches for the design choices DESIGN.md calls out. Key result numbers
// are attached to each benchmark via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// doubles as a miniature reproduction run. cmd/surwbench produces the full
// tables; see EXPERIMENTS.md for paper-vs-measured.
package surw

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"surw/internal/core"
	"surw/internal/experiments"
	"surw/internal/ftp"
	"surw/internal/profile"
	"surw/internal/race"
	"surw/internal/racebench"
	"surw/internal/replay"
	"surw/internal/runner"
	"surw/internal/sched"
	"surw/internal/sctbench"
	"surw/internal/stats"
)

// benchScale is deliberately small: each table benchmark completes in
// seconds while preserving the result ordering.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Seed:           1,
		Sessions:       2,
		Limit:          400,
		SafeStackLimit: 400,
		RaceBenchLimit: 300,
		FTPTrials:      2,
		FTPLimit:       400,
		Fig2Trials:     5040,
	}
}

// BenchmarkFig2 regenerates Figure 2: uniformity of the final-x
// distribution on the Figure 1 program, per algorithm. The reported
// chi-square is against the uniform distribution over 252 classes (lower
// is more uniform; URW should be ~250, the baselines thousands).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure2(benchScale().Fig2Trials, 1, 0)
		b.ReportMetric(f.ChiSquare["URW"], "chi2-URW")
		b.ReportMetric(f.ChiSquare["RW"], "chi2-RW")
		b.ReportMetric(f.ChiSquare["PCT-10"], "chi2-PCT10")
	}
}

// BenchmarkTable1 regenerates Table 1's summary (bugs found on
// SCTBench+ConVul) at bench scale and reports the per-algorithm totals.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SCTBench(benchScale(), nil)
		for _, alg := range []string{"SURW", "POS", "RW"} {
			found := 0
			for _, tname := range r.Targets {
				if r.Results[tname][alg].FoundEver() {
					found++
				}
			}
			b.ReportMetric(float64(found), "bugs-"+alg)
		}
	}
}

// BenchmarkTable4 regenerates a slice of Table 4 (schedules-to-first-bug)
// on the reorder family, the paper's flagship analysis, reporting SURW's
// mean against PCT-3's.
func BenchmarkTable4(b *testing.B) {
	targets := []runner.Target{sctbench.Reorder(9, 1), sctbench.Twostage(10)}
	for i := 0; i < b.N; i++ {
		for _, tgt := range targets {
			for _, alg := range []string{"SURW", "PCT-3"} {
				res, err := runner.RunTarget(tgt, alg, runner.Config{
					Sessions: 2, Limit: 4000, Seed: 5, StopAtFirstBug: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum, found := res.FirstBugSummary()
				mean := float64(res.Limit)
				if found > 0 {
					mean = sum.Mean
				}
				b.ReportMetric(mean, tgt.Name[3:]+"-"+alg)
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (RaceBench distinct bugs) on a
// three-base slice and reports per-algorithm totals; SURW and POS should
// lead RW and PCT.
func BenchmarkTable2(b *testing.B) {
	suite := racebench.Suite()[:3]
	for i := 0; i < b.N; i++ {
		for _, alg := range []string{"SURW", "POS", "RW", "PCT-3"} {
			total := 0
			for _, base := range suite {
				res, err := runner.RunTarget(base.Target(), alg, runner.Config{
					Sessions: 1, Limit: benchScale().RaceBenchLimit, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				total += len(res.DistinctBugs())
			}
			b.ReportMetric(float64(total), "bugs-"+alg)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (LightFTP entropies) and reports the
// interleaving entropy per algorithm; SURW should be the highest.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LightFTP(benchScale(), nil)
		t3 := r.Table3()
		_ = t3
		for _, alg := range experiments.FTPAlgorithms {
			var ilv []float64
			for _, res := range r.Trials[alg] {
				ilv = append(ilv, res.Sessions[0].Cov.InterleavingEntropy())
			}
			b.ReportMetric(stats.Summarize(ilv).Mean, "ilvH-"+alg)
		}
	}
}

// BenchmarkFig5 regenerates Figure 5's final coverage points (distinct
// interleavings and behaviours on LightFTP) for SURW vs RW.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LightFTP(benchScale(), nil)
		for _, alg := range []string{"SURW", "RW", "PCT-10"} {
			nIlv, nBeh := 0, 0
			for _, res := range r.Trials[alg] {
				cov := res.Sessions[0].Cov
				nIlv += len(cov.Interleavings)
				nBeh += len(cov.Behaviors)
			}
			n := float64(len(r.Trials[alg]))
			b.ReportMetric(float64(nIlv)/n, "ilv-"+alg)
			b.ReportMetric(float64(nBeh)/n, "beh-"+alg)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkDecision measures the per-scheduling-decision cost of each
// stateless algorithm on the Figure 1 program (§6 compares SURW's ~20 ns
// per decision against RFF's ~305 ns; our decisions include Go-side
// bookkeeping but stay within the same order of magnitude).
func BenchmarkDecision(b *testing.B) {
	prog := experiments.Bitshift(16)
	info := experiments.BitshiftInfo(16)
	for _, name := range []string{"SURW", "URW", "POS", "PCT-3", "RW"} {
		alg, err := core.New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}, Info: info})
				steps += r.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/decision")
		})
	}
}

// BenchmarkSchedulerThroughput measures raw substrate speed: events per
// second through the cooperative scheduler with the cheapest algorithm.
func BenchmarkSchedulerThroughput(b *testing.B) {
	prog := experiments.Bitshift(64)
	alg := core.NewRandomWalk()
	steps := 0
	for i := 0; i < b.N; i++ {
		r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
		steps += r.Steps
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkParallelSessions measures the parallel runner's scaling: the
// same (target, algorithm, seed) workload fanned over 1, 2, 4 and
// GOMAXPROCS workers. Results are bit-identical at every worker count (see
// internal/runner/parallel_test.go), so this isolates pure wall-clock
// scaling; schedules/s should grow close to linearly until the worker
// count passes the CPU count. allocs/schedule reports the steady-state
// allocation cost per schedule under the pooled execution engine.
func BenchmarkParallelSessions(b *testing.B) {
	tgt, ok := sctbench.ByName("CS/twostage_20")
	if !ok {
		b.Fatal("missing target")
	}
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	for _, w := range counts {
		// Underscore, not dash: `go test` appends -GOMAXPROCS to benchmark
		// names, and obs.ParseBench strips that suffix; a dashed worker
		// count would be indistinguishable from it.
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			schedules := 0
			for i := 0; i < b.N; i++ {
				res, err := runner.RunTarget(tgt, "RW", runner.Config{
					Sessions: 8, Limit: 100, Seed: 42, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range res.Sessions {
					schedules += s.Schedules
				}
			}
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/s")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(schedules), "allocs/schedule")
		})
	}
}

// BenchmarkSurwsync measures real Go code under the scheduler: the ported
// worker pool (WP/pool_2w2j) reaches the engine only through the surwsync
// goroutine-binding frontend, so every synchronization op resolves its
// virtual thread through sched.CurrentThread. Each iteration is one RW
// session of 100 schedules through runner.RunSession, the unit a campaign
// worker executes.
func BenchmarkSurwsync(b *testing.B) {
	tgt, ok := sctbench.ByName("WP/pool_2w2j")
	if !ok {
		b.Fatal("missing target")
	}
	benchRWSessions(b, tgt)
}

// benchRWSessions runs one RW session of 100 schedules per iteration
// through runner.RunSession and reports schedules/s and allocs/schedule.
func benchRWSessions(b *testing.B, tgt runner.Target) {
	var ms0, ms1 runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&ms0)
	schedules := 0
	for i := 0; i < b.N; i++ {
		s, err := runner.RunSession(context.Background(), tgt, "RW", runner.Config{Limit: 100, Seed: 42}, i)
		if err != nil {
			b.Fatal(err)
		}
		schedules += s.Schedules
	}
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(schedules), "allocs/schedule")
}

// BenchmarkRaceBenchSession measures the long-trace engine path of Table 2:
// each iteration is one RW session of 100 schedules on the blackscholes
// RaceBench base through runner.RunSession. Every schedule re-creates the
// base's ~218 named objects, so allocs/schedule gates object creation on a
// pooled execution (object-table replay, once-per-process names).
func BenchmarkRaceBenchSession(b *testing.B) {
	benchRWSessions(b, racebench.Suite()[0].Target())
}

// BenchmarkPooledSchedule quantifies the allocation diet directly: one
// schedule of the Figure 1 program through a recycled sched.Pool versus a
// fresh Execution per run.
func BenchmarkPooledSchedule(b *testing.B) {
	prog := experiments.Bitshift(16)
	alg := core.NewRandomWalk()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		for i := 0; i < b.N; i++ {
			pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i)}})
		}
	})
}

// forkAfterPrefix builds a program whose first `prefix` decisions are all
// forced (only the root is runnable) before two children introduce real
// scheduling choice: the shape that prefix checkpointing (Pool.RunPrefix /
// Pool.RunFrom) is designed to amortize.
func forkAfterPrefix(prefix int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		v := t.NewVar("v", 0)
		for i := 0; i < prefix; i++ {
			v.Add(t, 1)
		}
		a := t.Go(func(w *sched.Thread) {
			for i := 0; i < 4; i++ {
				v.Add(w, 1)
			}
		})
		b := t.Go(func(w *sched.Thread) {
			for i := 0; i < 4; i++ {
				v.Add(w, 1)
			}
		})
		t.JoinAll(a, b)
	}
}

// BenchmarkPrefixFork measures prefix checkpointing on a program with a
// long forced prologue: "capture" is the RunPrefix schedule that records
// the forced-decision prefix, "replay" re-runs later seeds through
// RunFrom, and "full" is the same seed schedule without a checkpoint. The
// capture/replay split is the session shape of runner/parallel.go: one
// capture, Limit-1 replays.
func BenchmarkPrefixFork(b *testing.B) {
	prog := forkAfterPrefix(120)
	alg := core.NewRandomWalk()
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		decisions := 0
		for i := 0; i < b.N; i++ {
			_, cp := pool.RunPrefix(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 1}})
			if cp == nil {
				b.Fatal("no checkpoint captured")
			}
			decisions = cp.Decisions()
		}
		b.ReportMetric(float64(decisions), "forced-decisions")
	})
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		_, cp := pool.RunPrefix(prog, alg, sched.Options{Base: sched.Base{Seed: 1}})
		if cp == nil {
			b.Fatal("no checkpoint captured")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.RunFrom(cp, prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 2}})
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		pool := sched.NewPool()
		for i := 0; i < b.N; i++ {
			pool.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 2}})
		}
	})
}

// BenchmarkBatchedReplay is the A/B for the batched run-to-next-decision
// engine on the parallel benchmark's workload: the same pooled schedules
// with the fast engine ("batched") and with Options.DisableBatching
// forcing the verbatim slow loop ("slow"). The two produce bit-identical
// Results (see internal/crosscheck); the ratio is the engine's speedup.
func BenchmarkBatchedReplay(b *testing.B) {
	tgt, ok := sctbench.ByName("CS/twostage_20")
	if !ok {
		b.Fatal("missing target")
	}
	alg := core.NewRandomWalk()
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"batched", false}, {"slow", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			pool := sched.NewPool()
			for i := 0; i < b.N; i++ {
				pool.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(i) + 1}, DisableBatching: mode.disable})
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e9, "ns/schedule")
		})
	}
}

// BenchmarkProfileCollect measures the profiling phase on a mid-size
// benchmark target.
func BenchmarkProfileCollect(b *testing.B) {
	tgt, _ := sctbench.ByName("CS/twostage_20")
	for i := 0; i < b.N; i++ {
		if _, err := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: int64(i)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for DESIGN.md's called-out choices
// ---------------------------------------------------------------------------

// staggered spawns worker A, runs m main-thread events, then spawns worker
// B — the §3.5 scenario: while B is unspawned, the only way to schedule
// B-side events early is to weight the main thread by B's remaining count.
func staggered(k, m int) (func(*sched.Thread), *sched.ProgramInfo) {
	prog := func(t *sched.Thread) {
		x := t.NewVar("x", 1)
		ctl := t.NewVar("ctl", 0)
		a := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v << 1 })
			}
		})
		for i := 0; i < m; i++ {
			ctl.Add(t, 1)
		}
		bb := t.Go(func(w *sched.Thread) {
			for i := 0; i < k; i++ {
				x.Update(w, func(v int64) int64 { return v<<1 + 1 })
			}
		})
		t.Join(a)
		t.Join(bb)
		t.SetBehavior(fmt.Sprintf("%b", x.Peek()))
	}
	info := sched.NewProgramInfo()
	root := info.AddThread("0", "")
	la := info.AddThread("0.0", "0")
	lb := info.AddThread("0.1", "0")
	info.Events[root] = m + 2
	info.Events[la] = k
	info.Events[lb] = k
	copy(info.InterestingEvents, info.Events)
	info.TotalEvents = m + 2 + 2*k
	return prog, info
}

// BenchmarkAblationSpawnWeights compares URW's skew with and without the
// §3.5 thread-creation weight correction on the staggered-spawn program:
// without the correction the main thread (and hence worker B's creation)
// is starved, so B-early interleavings are under-sampled and the final-x
// distribution skews far harder.
func BenchmarkAblationSpawnWeights(b *testing.B) {
	prog, info := staggered(4, 8)
	run := func(alg sched.Algorithm) float64 {
		counts := make(map[string]int)
		for s := 0; s < 7000; s++ {
			r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(s)}, Info: info})
			counts[r.Behavior]++
		}
		xs := make([]int, 0, len(counts))
		for _, c := range counts {
			xs = append(xs, c)
		}
		return stats.ChiSquareUniform(xs, int(stats.Binomial(8, 4)))
	}
	for i := 0; i < b.N; i++ {
		on := core.NewURW()
		off := core.NewURW()
		off.NoSpawnCorrection = true
		b.ReportMetric(run(on), "chi2-corrected")
		b.ReportMetric(run(off), "chi2-uncorrected")
	}
}

// BenchmarkAblationPickFrom compares SURW's default pickFrom (fresh random
// priority per event) against uniform per-step choice on the reorder
// workload; both must keep the bug findable (Δ-uniformity does not depend
// on pickFrom), with similar schedule counts.
func BenchmarkAblationPickFrom(b *testing.B) {
	tgt := sctbench.Reorder(9, 1)
	for _, uniform := range []bool{false, true} {
		name := "priority"
		if uniform {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				found := 0.0
				prof, _ := profile.Collect(tgt.Prog, profile.Options{Base: sched.Base{Seed: 17}})
				rng := rand.New(rand.NewSource(3))
				alg := core.NewSURW()
				alg.PickUniform = uniform
				for s := 0; s < 2000; s++ {
					sel, ok := prof.SelectSingleVar(rng)
					if !ok {
						b.Fatal("no shared var")
					}
					r := sched.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(s)}, Info: prof.Instantiate(sel)})
					if r.Buggy() {
						found = float64(s + 1)
						break
					}
				}
				b.ReportMetric(found, "schedules-to-bug")
			}
		})
	}
}

// BenchmarkAblationCSEntrance compares SURW's Δ choices on a lock-heavy
// target: critical-section entrances (§3.5's recommendation) versus the
// protected variable itself.
func BenchmarkAblationCSEntrance(b *testing.B) {
	tgt, _ := sctbench.ByName("CS/wronglock_3")
	selects := map[string]func(p *profile.Profile, rng *rand.Rand) (profile.Selection, bool){
		"lock-entrances": func(p *profile.Profile, _ *rand.Rand) (profile.Selection, bool) {
			return p.SelectLockEntrances()
		},
		"shared-var": func(p *profile.Profile, rng *rand.Rand) (profile.Selection, bool) {
			return p.SelectSingleVar(rng)
		},
	}
	for _, name := range []string{"lock-entrances", "shared-var"} {
		sel := selects[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := tgt
				t.Select = sel
				res, err := runner.RunTarget(t, "SURW", runner.Config{
					Sessions: 3, Limit: 2000, Seed: 9, StopAtFirstBug: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum, found := res.FirstBugSummary()
				mean := float64(res.Limit)
				if found > 0 {
					mean = sum.Mean
				}
				b.ReportMetric(mean, "schedules-to-bug")
			}
		})
	}
}

// BenchmarkAblationCountNoise measures §7's sensitivity to count-estimate
// error: URW's uniformity as the estimates are scaled away from truth.
func BenchmarkAblationCountNoise(b *testing.B) {
	const k = 4
	for _, scale := range []float64{1.0, 2.0, 8.0} {
		b.Run(fmt.Sprintf("scale-%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info := experiments.BitshiftInfo(k)
				// Skew only thread A's estimate: relative ratios are what
				// matter (§7).
				info.Events[info.LID("0.0")] = int(float64(k) * scale)
				info.InterestingEvents[info.LID("0.0")] = info.Events[info.LID("0.0")]
				prog := experiments.Bitshift(k)
				counts := make(map[string]int)
				alg := core.NewURW()
				for s := 0; s < 7000; s++ {
					r := sched.Run(prog, alg, sched.Options{Base: sched.Base{Seed: int64(s)}, Info: info})
					counts[r.Behavior]++
				}
				xs := make([]int, 0, len(counts))
				for _, c := range counts {
					xs = append(xs, c)
				}
				b.ReportMetric(stats.ChiSquareUniform(xs, int(stats.Binomial(2*k, k))), "chi2")
			}
		})
	}
}

// BenchmarkFTPSchedule measures one LightFTP schedule end to end.
func BenchmarkFTPSchedule(b *testing.B) {
	tgt := ftp.DefaultConfig().Target(3)
	alg := core.NewRandomWalk()
	for i := 0; i < b.N; i++ {
		sched.Run(tgt.Prog, alg, sched.Options{Base: sched.Base{Seed: int64(i), ProgSeed: 3}})
	}
}

// BenchmarkRaceDetect measures the happens-before analysis on recorded
// LightFTP traces.
func BenchmarkRaceDetect(b *testing.B) {
	tgt := ftp.DefaultConfig().Target(3)
	res := sched.Run(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: 1, ProgSeed: 3}, RecordTrace: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		race.Detect(res.Trace, res.ThreadPaths)
	}
	b.ReportMetric(float64(len(res.Trace)), "events/trace")
}

// BenchmarkMinimize measures schedule minimization on a recorded failure.
func BenchmarkMinimize(b *testing.B) {
	tgt := sctbench.Reorder(2, 1)
	var rec replay.Recording
	var bugID string
	found := false
	for seed := int64(0); seed < 2000 && !found; seed++ {
		res, r := replay.Record(tgt.Prog, core.NewRandomWalk(), sched.Options{Base: sched.Base{Seed: seed}})
		if res.Buggy() {
			rec, bugID, found = r, res.Failure.BugID, true
		}
	}
	if !found {
		b.Fatal("no failure to minimize")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay.Minimize(tgt.Prog, rec, bugID, sched.Options{}, 0)
	}
}
