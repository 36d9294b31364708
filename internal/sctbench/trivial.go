package sctbench

import (
	"surw/internal/objname"
	"surw/internal/runner"
	"surw/internal/sched"
)

// TrivialTargets returns the eleven easy SCTBench programs the paper omits
// from its tables because "all algorithms sample the buggy schedule within
// 10 executions on average" (§4.2). They complete the 42-program suite and
// serve as smoke tests: every algorithm must crack every one of them
// almost immediately.
func TrivialTargets() []runner.Target {
	return []runner.Target{
		FibBench(5), FibBenchLonger(8),
		Sync01(), Sync02(),
		LastZero(4), Sigma(4),
		Queue(), Barrier(3),
		Swarm(4), Aget(3), PBZip2(3),
	}
}

// FibBench models CS/fib_bench: two threads iteratively add each other's
// accumulator without synchronization. The assertion pins the block-order
// outcome (thread 1 fully before thread 2), which nearly every interleaved
// schedule violates — hence trivial for every algorithm.
func FibBench(rounds int) runner.Target {
	name := "CS/fib_bench"
	if rounds > 5 {
		name = "CS/fib_bench_longer"
	}
	// Sequential (h1 fully, then h2) outcome: i grows by j=1 each round;
	// then j grows by the final i each round.
	seqI := int64(1 + rounds)
	seqJ := int64(1) + int64(rounds)*seqI
	return runner.Target{
		Name: name,
		Prog: func(t *sched.Thread) {
			i := t.NewVar("i", 1)
			j := t.NewVar("j", 1)
			h1 := t.Go(func(w *sched.Thread) {
				for k := 0; k < rounds; k++ {
					i.Store(w, i.Load(w)+j.Load(w))
				}
			})
			h2 := t.Go(func(w *sched.Thread) {
				for k := 0; k < rounds; k++ {
					j.Store(w, j.Load(w)+i.Load(w))
				}
			})
			t.JoinAll(h1, h2)
			t.Assert(i.Peek() == seqI && j.Peek() == seqJ, "fib_bench-race")
		},
	}
}

// FibBenchLonger is CS/fib_bench_longer: more rounds, same bug.
func FibBenchLonger(rounds int) runner.Target { return FibBench(rounds) }

// Sync01 models CS/sync01: a producer signals before the consumer waits,
// losing the wakeup unless the consumer checked first.
func Sync01() runner.Target {
	return runner.Target{
		Name: "CS/sync01",
		Prog: func(t *sched.Thread) {
			m := t.NewMutex("m")
			c := t.NewCond("c", m)
			num := t.NewVar("num", 0)
			prod := t.Go(func(w *sched.Thread) {
				m.Lock(w)
				num.Add(w, 1)
				c.Signal(w) // lost if the consumer has not waited yet
				m.Unlock(w)
			})
			if num.Load(t) == 0 { // buggy: checked outside the lock
				m.Lock(t)
				c.Wait(t) // deadlocks when the signal already fired
				m.Unlock(t)
			}
			t.Join(prod)
		},
		MaxSteps: 10_000,
	}
}

// Sync02 models CS/sync02: like sync01, but the consumer's recheck is
// missing entirely, so the bug is the stale read itself.
func Sync02() runner.Target {
	return runner.Target{
		Name: "CS/sync02",
		Prog: func(t *sched.Thread) {
			num := t.NewVar("num", 0)
			prod := t.Go(func(w *sched.Thread) {
				num.Store(w, 1)
			})
			v := num.Load(t)
			t.Join(prod)
			t.Assert(v == 1, "sync02") // fails when the read beat the store
		},
	}
}

// cellNames are LastZero's array cells, formatted once per process on
// first use.
var cellNames = objname.New("a", 16)

// LastZero models CS/lastzero: workers race filling an array in order
// while a checker expects the filled cells to form a prefix; any worker
// finishing before its predecessor tears the prefix.
func LastZero(workers int) runner.Target {
	return runner.Target{
		Name: "CS/lastzero",
		Prog: func(t *sched.Thread) {
			cells := make([]*sched.Var, workers)
			for i := range cells {
				cells[i] = t.NewVar(cellNames.Name(i), 0)
			}
			hs := make([]*sched.Handle, workers)
			for i := range hs {
				i := i
				hs[i] = t.Go(func(w *sched.Thread) {
					cells[i].Store(w, 1)
				})
			}
			chk := t.Go(func(w *sched.Thread) {
				sawZero := false
				for i := 0; i < workers; i++ {
					if cells[i].Load(w) == 0 {
						sawZero = true
					} else {
						w.Assert(!sawZero, "lastzero-torn-prefix")
					}
				}
			})
			t.JoinAll(hs...)
			t.Join(chk)
		},
	}
}

// Sigma models CS/sigma: n workers accumulate into a shared sum with a
// non-atomic read-modify-write; the main thread asserts no update was lost.
func Sigma(workers int) runner.Target {
	return runner.Target{
		Name: "CS/sigma",
		Prog: func(t *sched.Thread) {
			sum := t.NewVar("sum", 0)
			hs := spawnN(t, workers, func(w *sched.Thread) {
				sum.Store(w, sum.Load(w)+1)
			})
			t.JoinAll(hs...)
			t.Assert(sum.Peek() == int64(workers), "sigma-lost-update")
		},
	}
}

// Queue models CS/queue: a lock-protected ring buffer whose emptiness
// check happens outside the lock.
func Queue() runner.Target {
	return runner.Target{
		Name: "CS/queue",
		Prog: func(t *sched.Thread) {
			m := t.NewMutex("m")
			n := t.NewVar("n", 0)
			prod := t.Go(func(w *sched.Thread) {
				for i := 0; i < 3; i++ {
					m.Lock(w)
					n.Add(w, 1)
					m.Unlock(w)
				}
			})
			cons := t.Go(func(w *sched.Thread) {
				for i := 0; i < 3; i++ {
					if n.Load(w) > 0 { // buggy: outside the lock
						m.Lock(w)
						w.Assert(n.Add(w, -1) >= 0, "queue-underflow")
						m.Unlock(w)
					}
				}
			})
			cons2 := t.Go(func(w *sched.Thread) {
				if n.Load(w) > 0 {
					m.Lock(w)
					w.Assert(n.Add(w, -1) >= 0, "queue-underflow")
					m.Unlock(w)
				}
			})
			t.JoinAll(prod, cons, cons2)
		},
	}
}

// Barrier models a counter barrier whose "last one resets" logic races:
// a thread passing the barrier can observe the pre-reset generation.
func Barrier(workers int) runner.Target {
	return runner.Target{
		Name: "CS/barrier",
		Prog: func(t *sched.Thread) {
			arrived := t.NewVar("arrived", 0)
			gen := t.NewVar("gen", 0)
			hs := spawnN(t, workers, func(w *sched.Thread) {
				if arrived.Add(w, 1) == int64(workers) {
					arrived.Store(w, 0) // buggy reset: not atomic with gen
					gen.Add(w, 1)
				}
				w.Assert(arrived.Load(w) <= int64(workers), "barrier-overflow")
				// A racing late arrival can see arrived reset while gen is
				// still the old generation.
				w.Assert(!(arrived.Load(w) == 0 && gen.Load(w) == 0), "barrier-torn-reset")
			})
			t.JoinAll(hs...)
		},
	}
}

// Swarm models Inspect/swarm: many workers flip a shared flag; the checker
// asserts a stale aggregate.
func Swarm(workers int) runner.Target {
	return runner.Target{
		Name: "Inspect/swarm",
		Prog: func(t *sched.Thread) {
			flag := t.NewVar("flag", 0)
			hs := spawnN(t, workers, func(w *sched.Thread) {
				flag.Store(w, 1-flag.Load(w))
			})
			t.JoinAll(hs...)
			t.Assert(flag.Peek() == int64(workers%2), "swarm-parity")
		},
	}
}

// Aget models CB/aget: download chunks update a shared progress counter
// without a lock, and the resume logic trusts it.
func Aget(chunks int) runner.Target {
	return runner.Target{
		Name: "CB/aget",
		Prog: func(t *sched.Thread) {
			progress := t.NewVar("progress", 0)
			hs := spawnN(t, chunks, func(w *sched.Thread) {
				progress.Store(w, progress.Load(w)+100)
			})
			t.JoinAll(hs...)
			t.Assert(progress.Peek() == int64(100*chunks), "aget-progress-lost")
		},
	}
}

// PBZip2 models CB/pbzip2: compressor threads push blocks and the muxer
// pops them, with a racy fifo length check.
func PBZip2(blocks int) runner.Target {
	return runner.Target{
		Name: "CB/pbzip2",
		Prog: func(t *sched.Thread) {
			m := t.NewMutex("fifo")
			length := t.NewVar("len", 0)
			comp := t.Go(func(w *sched.Thread) {
				for i := 0; i < blocks; i++ {
					m.Lock(w)
					length.Add(w, 1)
					m.Unlock(w)
				}
			})
			mux := t.Go(func(w *sched.Thread) {
				popped := 0
				for i := 0; i < 2*blocks && popped < blocks; i++ {
					if length.Load(w) > 0 { // buggy: outside the lock
						m.Lock(w)
						w.Assert(length.Add(w, -1) >= 0, "pbzip2-underflow")
						m.Unlock(w)
						popped++
					} else {
						w.Yield()
					}
				}
			})
			mux2 := t.Go(func(w *sched.Thread) {
				if length.Load(w) > 0 {
					m.Lock(w)
					w.Assert(length.Add(w, -1) >= 0, "pbzip2-underflow")
					m.Unlock(w)
				}
			})
			t.JoinAll(comp, mux, mux2)
		},
	}
}
