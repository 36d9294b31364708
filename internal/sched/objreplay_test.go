package sched

import (
	"slices"
	"strconv"
	"testing"
)

// objSpec is one object creation of a replay-test program: a constructor
// kind and the name passed to it ("" asks for an auto name).
type objSpec struct {
	kind string // "var", "ref", "mutex", "rwmutex", "sem"
	name string
}

// specProg builds a program that creates specs in order, reports every
// object's name through names (overwritten each schedule), and has two
// threads touch every object so the trace carries each object's ID and
// hash.
func specProg(specs []objSpec, names *[]string) func(*Thread) {
	return func(t *Thread) {
		*names = (*names)[:0]
		var ops []func(*Thread)
		for _, s := range specs {
			switch s.kind {
			case "var":
				v := t.NewVar(s.name, 0)
				*names = append(*names, v.Name())
				ops = append(ops, func(w *Thread) { v.Add(w, 1) })
			case "ref":
				r := NewRef[string](t, s.name, "")
				*names = append(*names, r.Name())
				ops = append(ops, func(w *Thread) { r.Set(w, w.Path()) })
			case "mutex":
				m := t.NewMutex(s.name)
				*names = append(*names, m.Name())
				ops = append(ops, func(w *Thread) { m.Lock(w); m.Unlock(w) })
			case "rwmutex":
				m := t.NewRWMutex(s.name)
				*names = append(*names, m.Name())
				ops = append(ops, func(w *Thread) { m.RLock(w); m.RUnlock(w) })
			case "sem":
				sem := t.NewSemaphore(s.name, 1)
				*names = append(*names, sem.Name())
				ops = append(ops, func(w *Thread) { sem.P(w); sem.V(w) })
			default:
				panic("unknown object kind " + s.kind)
			}
		}
		body := func(w *Thread) {
			for _, op := range ops {
				op(w)
			}
		}
		t.JoinAll(t.Go(body), t.Go(body))
	}
}

// TestPooledObjectTableMatchesOneShot holds the object table of a pooled
// schedule — names, collision suffixes, hashes, and with them the trace,
// Fingerprint (InterleavingHash) and ClassHash — identical to a one-shot
// sched.Run when the creation sequence matches, extends, shortens or
// diverges from the previous schedule's. Each case runs its programs in
// order on one pool; a two-program case alternates them, so every
// transition runs in both directions and twice in a row (the replay fast
// path).
func TestPooledObjectTableMatchesOneShot(t *testing.T) {
	v := func(name string) objSpec { return objSpec{"var", name} }
	base := []objSpec{v("x"), v("y"), {"mutex", "m"}, v(""), v("")}
	with := func(specs []objSpec, k int, s objSpec) []objSpec {
		out := append([]objSpec(nil), specs...)
		out[k] = s
		return out
	}
	alternate := func(prev, next []objSpec) [][]objSpec {
		return [][]objSpec{prev, next, next, prev, prev, next}
	}
	dups := []objSpec{v("d"), v("d"), v("x"), v("d"), v(""), v("d")}
	cases := []struct {
		name string
		seq  [][]objSpec
	}{
		{"same objects", alternate(base, base)},
		{"one more", alternate(base, append(append([]objSpec(nil), base...), v("z")))},
		{"one fewer", alternate(base, base[:len(base)-1])},
		{"different name at slot k", alternate(base, with(base, 1, v("w")))},
		{"explicit to auto name", alternate(base, with(base, 1, v("")))},
		{"explicit name spelling an auto name", alternate(with(base, 3, v("var#3")), base)},
		{"auto name with another prefix", alternate(base, with(base, 3, objSpec{"ref", ""}))},
		{"var to ref", alternate(base, with(base, 0, objSpec{"ref", "x"}))},
		{"mutex to rwmutex", alternate(base, with(base, 2, objSpec{"rwmutex", "m"}))},
		{"mutex to semaphore", alternate(base, with(base, 2, objSpec{"sem", "m"}))},
		{"suffixes around the divergence", alternate(dups, with(dups, 2, v("d")))},
		{"suffixes after a late divergence", alternate(dups, with(dups, 4, v("d")))},
		{"divergence removes a suffix", alternate(dups, with(dups, 1, v("e")))},
		{"no objects", alternate(base, nil)},
		// Slots past the previous schedule's count are older still: the
		// middle schedule leaves a stale "d" (named d~1) at slot 1 that the
		// last one must not replay.
		{"stale slot from two schedules back", [][]objSpec{{v("d"), v("d")}, {v("e")}, {v("e"), v("d")}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var names, freshNames []string
			pool := NewPool()
			defer pool.Close()
			opts := Options{RecordTrace: true}
			for i, specs := range tc.seq {
				opts.Seed = int64(i)
				pooled := pool.Run(specProg(specs, &names), &pickRandom{}, opts)
				fresh := Run(specProg(specs, &freshNames), &pickRandom{}, opts)
				resultsEqual(t, tc.name, opts.Seed, fresh, pooled)
				if !slices.Equal(names, freshNames) {
					t.Fatalf("run %d: pooled names %q, one-shot %q", i, names, freshNames)
				}
				for _, ev := range pooled.Trace {
					if ev.Obj != 0 && ev.ObjHash != HashName(names[ev.Obj-1]) {
						t.Fatalf("run %d: object %d (%s) traced with hash %x, want HashName %x",
							i, ev.Obj, names[ev.Obj-1], ev.ObjHash, HashName(names[ev.Obj-1]))
					}
				}
			}
		})
	}
}

// TestPooledHandlesAreRecycled pins the handle half of object-table
// replay: a warm pool hands a constructor back the handle it returned for
// the same slot last schedule when the handle type matches, and a fresh
// one when it does not.
func TestPooledHandlesAreRecycled(t *testing.T) {
	var vars []*Var
	var mus []*Mutex
	var rws []*RWMutex
	asRW := false
	prog := func(t *Thread) {
		vars = append(vars, t.NewVar("v", 0))
		if asRW {
			rws = append(rws, t.NewRWMutex("m"))
		} else {
			mus = append(mus, t.NewMutex("m"))
		}
	}
	pool := NewPool()
	defer pool.Close()
	pool.Run(prog, nil, Options{})
	pool.Run(prog, nil, Options{})
	if vars[0] != vars[1] || mus[0] != mus[1] {
		t.Fatal("warm pool allocated new handles for an unchanged slot")
	}
	asRW = true
	pool.Run(prog, nil, Options{})
	if vars[2] != vars[0] || rws[0] == nil {
		t.Fatal("handle recycling broke on a kind change at another slot")
	}
	asRW = false
	pool.Run(prog, nil, Options{})
	if mus[2] == mus[0] {
		t.Fatal("a *Mutex handle survived its slot's change of handle type")
	}
	if one := Run(prog, nil, Options{}); one == nil || vars[len(vars)-1] == vars[0] {
		t.Fatal("one-shot Run reused a pooled handle")
	}

	// A Cond handle also names its mutex: it is recycled only while the
	// slot's condition variable is bound to the same mutex handle.
	var conds []*Cond
	onFirst := true
	cprog := func(t *Thread) {
		a, b := t.NewMutex("a"), t.NewMutex("b")
		m := b
		if onFirst {
			m = a
		}
		conds = append(conds, t.NewCond("c", m))
		if conds[len(conds)-1].mu != m {
			t.Fail("cond handle bound to a stale mutex")
		}
	}
	for _, first := range []bool{true, true, false, true} {
		onFirst = first
		if r := pool.Run(cprog, nil, Options{}); r.Failure != nil {
			t.Fatal(r.Failure)
		}
	}
	if conds[0] != conds[1] || conds[2] == conds[1] {
		t.Fatal("cond handle recycled across a change of mutex, or not recycled without one")
	}
}

// TestPooledObjectCreationAllocationFree: on a warm pool, creating named
// vars and mutexes allocates nothing per object, so a schedule creating
// 256 of each allocates no more than one creating 4.
func TestPooledObjectCreationAllocationFree(t *testing.T) {
	const most = 256
	varNames := make([]string, most)
	muNames := make([]string, most)
	for i := range varNames {
		varNames[i] = "v" + strconv.Itoa(i)
		muNames[i] = "m" + strconv.Itoa(i)
	}
	vars := make([]*Var, most)
	mus := make([]*Mutex, most)
	allocs := func(n int) float64 {
		prog := func(t *Thread) {
			for i := 0; i < n; i++ {
				vars[i] = t.NewVar(varNames[i], 0)
				mus[i] = t.NewMutex(muNames[i])
			}
			mus[n-1].Lock(t)
			vars[n-1].Add(t, 1)
			mus[n-1].Unlock(t)
		}
		pool := NewPool()
		defer pool.Close()
		pool.Run(prog, nil, Options{}) // warm-up
		return testing.AllocsPerRun(20, func() { pool.Run(prog, nil, Options{}) })
	}
	small, large := allocs(4), allocs(most)
	if large > small {
		t.Fatalf("warm pooled schedule allocates %.1f with %d vars+mutexes, %.1f with 4: creation allocates per object",
			large, most, small)
	}
}
