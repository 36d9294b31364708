package sctbench

import (
	"surw/internal/objname"
	"surw/internal/runner"
	"surw/internal/sched"
)

// StringBuffer models CB/stringbuffer-jdk1.4: the classic JDK 1.4
// StringBuffer.append(StringBuffer) atomicity violation. append reads the
// argument's length under its monitor, releases it, then copies that many
// characters; a concurrent delete shrinks the buffer in between, and the
// copy reads out of bounds.
func StringBuffer() runner.Target {
	return runner.Target{
		Name: "CB/stringbuffer-jdk1.4",
		Prog: func(t *sched.Thread) {
			mon := t.NewMutex("sb2.monitor")
			length := t.NewVar("sb2.length", 5)
			appender := t.Go(func(w *sched.Thread) {
				mon.Lock(w)
				n := length.Load(w) // sb2.length()
				mon.Unlock(w)
				mon.Lock(w) // sb2.getChars(0, n, ...)
				cur := length.Load(w)
				w.Assert(n <= cur, "stringbuffer-index-out-of-bounds")
				mon.Unlock(w)
			})
			deleter := t.Go(func(w *sched.Thread) {
				mon.Lock(w)
				length.Store(w, length.Load(w)-3) // sb2.delete(0, 3)
				mon.Unlock(w)
			})
			t.JoinAll(appender, deleter)
		},
	}
}

// Object names, formatted once per process on first use: program bodies
// run every schedule.
var (
	taskNames  = objname.New("task", 8)
	stateNames = objname.New("state", 8)
)

// wsqWorld is the shared state of the work-stealing-queue variants: a
// deque of `items` tasks plus a taken-counter per task. Consuming a task
// twice is the bug in every variant.
type wsqWorld struct {
	head, tail *sched.Var
	taken      []*sched.Var
}

func newWSQWorld(t *sched.Thread, items int) *wsqWorld {
	w := &wsqWorld{
		head: t.NewVar("head", 0),
		tail: t.NewVar("tail", int64(items)), // tasks pre-pushed
	}
	for i := 0; i < items; i++ {
		w.taken = append(w.taken, t.NewVar(taskNames.Name(i), 0))
	}
	return w
}

func (q *wsqWorld) consume(w *sched.Thread, idx int64, bug string) {
	if idx >= 0 && int(idx) < len(q.taken) {
		w.Assert(q.taken[idx].Add(w, 1) == 1, bug)
	}
}

// WSQ models Chess/WSQ: a fully unsynchronized deque. The owner pops from
// the tail and two thieves steal from the head with plain loads and stores,
// so nearly every schedule with concurrent consumers double-takes.
func WSQ() runner.Target {
	return runner.Target{
		Name: "Chess/WSQ",
		Prog: func(t *sched.Thread) {
			q := newWSQWorld(t, 3)
			owner := t.Go(func(w *sched.Thread) {
				for i := 0; i < 2; i++ {
					tl := q.tail.Load(w) - 1
					q.tail.Store(w, tl)
					if q.head.Load(w) <= tl {
						q.consume(w, tl, "wsq-double-take")
					} else {
						q.tail.Store(w, q.head.Load(w))
					}
				}
			})
			thief := func(w *sched.Thread) {
				h := q.head.Load(w)
				if h < q.tail.Load(w) {
					q.head.Store(w, h+1) // unsynchronized increment
					q.consume(w, h, "wsq-double-take")
				}
			}
			t1, t2 := t.Go(thief), t.Go(thief)
			t.JoinAll(owner, t1, t2)
		},
	}
}

// IWSQ models Chess/IWSQ: thieves steal with an interlocked
// compare-and-swap on head, but the owner's pop stays unsynchronized, so
// the last element can be taken by both an owner pop and a concurrent
// steal whose CAS was issued against the pre-pop head.
func IWSQ() runner.Target {
	return runner.Target{
		Name: "Chess/IWSQ",
		Prog: func(t *sched.Thread) {
			q := newWSQWorld(t, 2)
			owner := t.Go(func(w *sched.Thread) {
				for i := 0; i < 2; i++ {
					tl := q.tail.Load(w) - 1
					q.tail.Store(w, tl)
					if q.head.Load(w) <= tl {
						q.consume(w, tl, "iwsq-double-take")
					} else {
						q.tail.Store(w, q.head.Load(w))
					}
				}
			})
			thief := func(w *sched.Thread) {
				h := q.head.Load(w)
				if h < q.tail.Load(w) {
					if q.head.CAS(w, h, h+1) {
						q.consume(w, h, "iwsq-double-take")
					}
				}
			}
			t1, t2 := t.Go(thief), t.Go(thief)
			t.JoinAll(owner, t1, t2)
		},
	}
}

// IWSQWithState models Chess/IWSQWithState: IWSQ with an explicit per-task
// state machine (ready -> running). A double-take manifests as a failed
// ready->running transition.
func IWSQWithState() runner.Target {
	return runner.Target{
		Name: "Chess/IWSQWithState",
		Prog: func(t *sched.Thread) {
			const items = 2
			head := t.NewVar("head", 0)
			tail := t.NewVar("tail", items)
			var state []*sched.Var
			for i := 0; i < items; i++ {
				state = append(state, t.NewVar(stateNames.Name(i), 1)) // 1 = ready
			}
			run := func(w *sched.Thread, idx int64) {
				if idx >= 0 && int(idx) < items {
					w.Assert(state[idx].CAS(w, 1, 2), "iwsqws-state-violation")
					state[idx].Store(w, 3) // running -> done
				}
			}
			owner := t.Go(func(w *sched.Thread) {
				for i := 0; i < 2; i++ {
					tl := tail.Load(w) - 1
					tail.Store(w, tl)
					if head.Load(w) <= tl {
						run(w, tl)
					} else {
						tail.Store(w, head.Load(w))
					}
				}
			})
			thief := func(w *sched.Thread) {
				h := head.Load(w)
				if h < tail.Load(w) {
					if head.CAS(w, h, h+1) {
						run(w, h)
					}
				}
			}
			t1, t2 := t.Go(thief), t.Go(thief)
			t.JoinAll(owner, t1, t2)
		},
	}
}

// SWSQ models Chess/SWSQ: steals run under a lock, but the owner's pop
// keeps its unsynchronized fast path, so a steal that read head/tail
// before an owner pop can still complete after it.
func SWSQ() runner.Target {
	return runner.Target{
		Name: "Chess/SWSQ",
		Prog: func(t *sched.Thread) {
			q := newWSQWorld(t, 2)
			m := t.NewMutex("steal")
			owner := t.Go(func(w *sched.Thread) {
				for i := 0; i < 2; i++ {
					tl := q.tail.Load(w) - 1
					q.tail.Store(w, tl)
					if q.head.Load(w) <= tl {
						q.consume(w, tl, "swsq-double-take")
					} else {
						m.Lock(w)
						q.tail.Store(w, q.head.Load(w))
						m.Unlock(w)
					}
				}
			})
			thief := func(w *sched.Thread) {
				m.Lock(w)
				h := q.head.Load(w)
				if h < q.tail.Load(w) {
					q.head.Store(w, h+1)
					q.consume(w, h, "swsq-double-take")
				}
				m.Unlock(w)
			}
			t1, t2 := t.Go(thief), t.Go(thief)
			t.JoinAll(owner, t1, t2)
		},
	}
}
