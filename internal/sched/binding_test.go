package sched

import (
	"fmt"
	"iter"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The registry is the foundation the surwsync frontend stands on: a bound
// goroutine resolves its virtual thread, an unbound one resolves nothing,
// and bindings never leak past a body. Exercised here in-package so the
// substrate's own coverage pins it, independent of surwsync's tests.
func TestBindingRegistry(t *testing.T) {
	if _, ok := CurrentThread(); ok {
		t.Fatal("unbound goroutine resolved a thread")
	}
	if Bindings() != 0 {
		t.Fatalf("Bindings() = %d before any bind", Bindings())
	}

	var resolved *Thread
	var childResolved bool
	res := Run(func(rt *Thread) {
		BindGoroutine(rt)
		defer UnbindGoroutine()
		got, ok := CurrentThread()
		if !ok || got != rt {
			panic("root binding did not resolve")
		}
		resolved = got

		h := rt.Go(func(w *Thread) {
			// The child's coroutine is a different goroutine: without its
			// own binding it must not inherit the root's.
			if _, ok := CurrentThread(); ok {
				panic("child inherited a binding it never made")
			}
			BindGoroutine(w)
			defer UnbindGoroutine()
			cw, ok := CurrentThread()
			childResolved = ok && cw == w
		})
		rt.Join(h)
	}, nil, Options{})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %+v", res.Failure)
	}
	if resolved == nil || !childResolved {
		t.Fatal("binding resolution failed inside the session")
	}
	if Bindings() != 0 {
		t.Fatalf("Bindings() = %d after session; bindings leaked", Bindings())
	}

	// Double-bind of the same goroutine must not inflate the counter, and a
	// stray unbind must stay a no-op.
	UnbindGoroutine()
	if Bindings() != 0 {
		t.Fatalf("Bindings() = %d after no-op unbind", Bindings())
	}
}

// The goroutine key and the stack-parsed ID must each agree with
// themselves on one goroutine and differ across goroutines — the two
// properties the shard map relies on.
func TestGoidStableAndDistinct(t *testing.T) {
	a, b := goidFromStack(), goidFromStack()
	if a != b || a <= 0 {
		t.Fatalf("goidFromStack unstable on one goroutine: %d vs %d", a, b)
	}
	ka, kb := goroutineKey(), goroutineKey()
	if ka != kb || ka == 0 {
		t.Fatalf("goroutineKey unstable on one goroutine: %#x vs %#x", ka, kb)
	}
	var other int64
	var otherKey uintptr
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); other, otherKey = goidFromStack(), goroutineKey() }()
	wg.Wait()
	if other == a || other <= 0 {
		t.Fatalf("distinct goroutines share goid %d", a)
	}
	if otherKey == ka {
		t.Fatalf("distinct live goroutines share key %#x", ka)
	}
}

// goidFromStack must read the same ID the runtime prints in a full
// stack dump's "goroutine N [running]:" header.
func TestGoidFromStackParsesHeader(t *testing.T) {
	check := func() error {
		buf := make([]byte, 4096)
		hdr := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
		if len(hdr) < 3 || hdr[0] != "goroutine" || hdr[2] != "[running]:" {
			return fmt.Errorf("unexpected stack header %q", hdr[:min(3, len(hdr))])
		}
		want, err := strconv.ParseInt(hdr[1], 10, 64)
		if err != nil {
			return err
		}
		if got := goidFromStack(); got != want {
			return fmt.Errorf("goidFromStack() = %d, header says %d", got, want)
		}
		return nil
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	// Spawn enough goroutines that IDs run past one digit.
	errs := make(chan error, 64)
	for i := 0; i < cap(errs); i++ {
		go func() { errs <- check() }()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// grow recurses deep enough, with a large enough frame, to force the
// goroutine's stack to be copied to a bigger one several times.
//
//go:noinline
func grow(depth int) byte {
	var pad [256]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return grow(depth-1) + pad[depth%len(pad)]
}

// The key must survive stack growth: the g lives off the stack, so a
// binding made on a small stack resolves after the stack was copied.
func TestGoroutineKeyStableAcrossStackGrowth(t *testing.T) {
	res := Run(func(rt *Thread) {
		BindGoroutine(rt)
		defer UnbindGoroutine()
		before, ok1 := CurrentThread()
		k1 := goroutineKey()
		grow(4096) // ~1 MiB of frames
		after, ok2 := CurrentThread()
		if !ok1 || !ok2 || before != rt || after != rt || goroutineKey() != k1 {
			rt.Fail("binding lost across stack growth")
		}
	}, nil, Options{})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %+v", res.Failure)
	}
}

// Keys must be distinct across many concurrently live goroutines,
// iter.Pull coroutine goroutines (the substrate's own thread bodies)
// included.
func TestGoroutineKeysDistinct(t *testing.T) {
	const plain, pulls = 1000, 100
	keys := make(chan uintptr, plain)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < plain; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys <- goroutineKey()
			<-release // stay live until every key is collected
		}()
	}
	seen := map[uintptr]bool{goroutineKey(): true}
	add := func(k uintptr, what string) {
		if seen[k] {
			t.Fatalf("%s key %#x collides with a live goroutine's", what, k)
		}
		seen[k] = true
	}
	for i := 0; i < plain; i++ {
		add(<-keys, "goroutine")
	}
	var stops []func()
	for i := 0; i < pulls; i++ {
		next, stop := iter.Pull(func(yield func(uintptr) bool) { yield(goroutineKey()) })
		stops = append(stops, stop) // suspended mid-sequence: the coroutine stays live
		k, ok := next()
		if !ok {
			t.Fatal("iter.Pull coroutine yielded nothing")
		}
		add(k, "coroutine")
	}
	close(release)
	wg.Wait()
	for _, stop := range stops {
		stop()
	}
}

// The runtime recycles a g when its goroutine exits, so a key can return
// on a fresh goroutine. Bind/unbind pairs on exited goroutines must leave
// nothing behind for the recycled gs to pick up. One binding stays live on
// the test goroutine so CurrentThread takes the lookup path rather than
// the no-bindings fast path.
func TestNoStaleBindingAfterGReuse(t *testing.T) {
	owner := &Thread{}
	BindGoroutine(owner)
	defer UnbindGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			BindGoroutine(&Thread{})
			defer UnbindGoroutine()
			if _, ok := CurrentThread(); !ok {
				panic("bound goroutine did not resolve")
			}
		}()
	}
	wg.Wait()
	if Bindings() != 1 {
		t.Fatalf("Bindings() = %d after the binders exited, want 1", Bindings())
	}

	var stale atomic.Int64
	for i := 0; i < 2000; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := CurrentThread(); ok {
				stale.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := stale.Load(); n != 0 {
		t.Fatalf("%d fresh goroutines resolved a stale binding", n)
	}
	if got, ok := CurrentThread(); !ok || got != owner {
		t.Fatal("the live binding stopped resolving")
	}
}

// CurrentThread sits on every surwsync operation: it must not allocate,
// whether the caller is bound, unbound while others are bound, or the
// process holds no binding at all.
func TestCurrentThreadZeroAllocs(t *testing.T) {
	if Bindings() != 0 {
		t.Fatalf("Bindings() = %d at test start", Bindings())
	}
	if n := testing.AllocsPerRun(1000, func() { CurrentThread() }); n != 0 {
		t.Fatalf("CurrentThread with no bindings: %v allocs, want 0", n)
	}
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skip("the stack-parse fallback key allocates; 0 allocs holds only with the getg stub")
	}
	owner := &Thread{}
	BindGoroutine(owner)
	if n := testing.AllocsPerRun(1000, func() {
		if got, ok := CurrentThread(); !ok || got != owner {
			panic("bound goroutine did not resolve")
		}
	}); n != 0 {
		UnbindGoroutine()
		t.Fatalf("bound CurrentThread: %v allocs, want 0", n)
	}

	// Unbound caller while another goroutine holds a binding.
	var n float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		n = testing.AllocsPerRun(1000, func() {
			if _, ok := CurrentThread(); ok {
				panic("unbound goroutine resolved a thread")
			}
		})
	}()
	<-done
	UnbindGoroutine()
	if n != 0 {
		t.Fatalf("unbound CurrentThread: %v allocs, want 0", n)
	}
}

// ShimCache must hand back the same object within one schedule and a fresh
// one each schedule — the fresh-state-per-schedule contract zero-value
// frontend primitives depend on.
func TestShimCacheGenerationScoped(t *testing.T) {
	var cache ShimCache
	var perSchedule []*Mutex
	var hitsSameObject bool
	prog := func(rt *Thread) {
		mk := func(w *Thread) any { return w.NewMutex("shim.mu") }
		m := cache.Resolve(rt, mk).(*Mutex)
		perSchedule = append(perSchedule, m)
		hitsSameObject = cache.Resolve(rt, mk).(*Mutex) == m
		m.Lock(rt)
		// Left locked on purpose: the next schedule's object must be free.
		if !hitsSameObject {
			rt.Fail("cache missed within a schedule")
		}
	}

	p := NewPool()
	defer p.Close()
	for s := int64(1); s <= 3; s++ {
		r := p.Run(prog, nil, Options{Base: Base{Seed: s}})
		if r.Failure != nil {
			t.Fatalf("schedule %d failed: %+v", s, r.Failure)
		}
	}
	if len(perSchedule) != 3 {
		t.Fatalf("ran %d schedules, want 3", len(perSchedule))
	}
	if perSchedule[0] == perSchedule[1] || perSchedule[1] == perSchedule[2] {
		t.Fatal("ShimCache reused an object across schedules")
	}
}

// A primitive shared by several executions (a package-level object under
// parallel sessions) keeps one entry per execution: the first owns the
// inline slot, later ones the overflow map, and each stays scoped to its
// own execution's current schedule.
func TestShimCacheSharedAcrossExecutions(t *testing.T) {
	var cache ShimCache
	pools := []*Pool{NewPool(), NewPool(), NewPool()}
	seen := map[*Mutex]bool{}
	for s := int64(1); s <= 3; s++ {
		for _, p := range pools {
			r := p.Run(func(rt *Thread) {
				mk := func(w *Thread) any { return w.NewMutex("shared.mu") }
				m := cache.Resolve(rt, mk).(*Mutex)
				if seen[m] {
					rt.Fail("object reused across executions or schedules")
				}
				seen[m] = true
				if cache.Resolve(rt, mk).(*Mutex) != m {
					rt.Fail("cache missed within a schedule")
				}
				m.Lock(rt) // left locked: no other schedule may see this object
			}, nil, Options{Base: Base{Seed: s}})
			if r.Failure != nil {
				t.Fatalf("schedule %d failed: %+v", s, r.Failure)
			}
		}
	}
	for _, p := range pools {
		p.Close()
	}
	if len(seen) != 9 {
		t.Fatalf("%d distinct objects over 3 executions x 3 schedules, want 9", len(seen))
	}
	if len(cache.more) != 2 {
		t.Fatalf("overflow map holds %d executions, want 2", len(cache.more))
	}
}

// The non-blocking operations added for the frontend's select-with-default
// and zero-value surfaces: TrySend on buffered/unbuffered/full channels,
// RWMutex Try variants against holders, WaitGroup.Count.
func TestNonBlockingShimOps(t *testing.T) {
	res := Run(func(rt *Thread) {
		buf := NewChan[int](rt, "buf", 1)
		if !buf.TrySend(rt, 7) {
			rt.Fail("TrySend on empty buffered channel refused")
		}
		if buf.TrySend(rt, 8) {
			rt.Fail("TrySend on full channel accepted")
		}
		if v, ok := buf.TryRecv(rt); !ok || v != 7 {
			rt.Fail("TryRecv missed the buffered value")
		}
		unbuf := NewChan[int](rt, "unbuf", 0)
		if unbuf.TrySend(rt, 1) {
			rt.Fail("unbuffered TrySend succeeded with no receiver")
		}

		rw := rt.NewRWMutex("rw")
		if rw.ID() == 0 || rw.Name() != "rw" {
			rt.Fail("RWMutex identity accessors broken")
		}
		if !rw.TryLock(rt) {
			rt.Fail("TryLock on free lock refused")
		}
		h := rt.Go(func(w *Thread) {
			if rw.TryLock(w) || rw.TryRLock(w) {
				w.Fail("Try acquired a write-held lock")
			}
		})
		rt.Join(h)
		rw.Unlock(rt)
		if !rw.TryRLock(rt) {
			rt.Fail("TryRLock on free lock refused")
		}
		if rw.TryLock(rt) {
			rt.Fail("TryLock succeeded under an active reader")
		}
		if !rw.TryRLock(rt) {
			rt.Fail("second concurrent TryRLock refused")
		}
		rw.RUnlock(rt)
		rw.RUnlock(rt)

		wg := rt.NewWaitGroup("wg")
		wg.Add(rt, 2)
		if wg.Count(rt) != 2 {
			rt.Fail("WaitGroup.Count wrong after Add")
		}
		wg.Done(rt)
		wg.Done(rt)
		if wg.Count(rt) != 0 {
			rt.Fail("WaitGroup.Count wrong after Done")
		}
	}, nil, Options{})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %+v", res.Failure)
	}
}
