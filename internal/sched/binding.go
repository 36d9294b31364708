package sched

// Current-thread binding: a goroutine → *Thread registry that lets a
// zero-argument frontend (surw/surwsync) resolve "the virtual thread this
// code is running on" without plumbing a *Thread through every call.
//
// Every virtual thread's body runs on a dedicated coroutine goroutine (see
// Thread.workerSeq), so the goroutine's identity is a faithful key for the
// duration of one schedule's body. The key is the address of the
// goroutine's runtime g on amd64 and arm64 (goroutineKey), and the
// stack-parsed goroutine ID elsewhere. The shim binds at body start and
// unbinds at body end (both inside the body wrapper, so kills and pool
// closure — which unwind the body via panic — still run the deferred
// unbind). That pairing is load-bearing: the runtime reuses a g once its
// goroutine exits, so a binding that outlived its goroutine would resolve
// on an unrelated one. Race builds cross-check it (binding_race.go).
//
// Cost discipline: nothing in the scheduling engine touches the registry.
// Binding is opt-in per thread (only shimmed programs call BindGoroutine),
// and CurrentThread's fast path for a process with no bindings at all — the
// production fallback of a shimmed package — is a single atomic load.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// bindShards keeps goroutine→thread lookups uncontended when parallel
// sessions bind concurrently. 64 shards ≫ typical worker counts.
const (
	bindShardBits = 6
	bindShards    = 1 << bindShardBits
)

type bindShard struct {
	mu sync.Mutex
	m  map[uintptr]binding
}

var bindReg struct {
	// active counts live bindings; zero lets CurrentThread skip the
	// goroutine lookup entirely.
	active atomic.Int64
	shards [bindShards]bindShard
}

// shardOf spreads goroutine keys over the shards. g addresses share their
// low bits (gs come from one size class), so the key is mixed by a
// Fibonacci multiply and the top bits pick the shard.
func shardOf(key uintptr) *bindShard {
	return &bindReg.shards[(uint64(key)*0x9E3779B97F4A7C15)>>(64-bindShardBits)]
}

// goidFromStack returns the current goroutine's ID, parsed from the
// runtime.Stack header ("goroutine N [running]: ..."). It works inside
// iter.Pull coroutine goroutines, which are real goroutines with ordinary
// IDs. It costs a shallow stack dump and one allocation (the buffer
// escapes into runtime.Stack), so it serves only as the goroutine key on
// architectures without a getg stub and as the race-build cross-check.
func goidFromStack() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes) and read digits.
	var id int64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// BindGoroutine registers t as the virtual thread of the calling goroutine.
// It must be called on the goroutine that runs t's body (the frontend calls
// it first thing in the body wrapper) and paired with UnbindGoroutine when
// the body returns or unwinds, before the goroutine exits.
func BindGoroutine(t *Thread) {
	key := goroutineKey()
	sh := shardOf(key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uintptr]binding, 4)
	}
	if _, dup := sh.m[key]; !dup {
		bindReg.active.Add(1)
	}
	sh.m[key] = newBinding(t)
	sh.mu.Unlock()
}

// UnbindGoroutine removes the calling goroutine's binding. Unbinding a
// goroutine that was never bound is a no-op.
func UnbindGoroutine() {
	key := goroutineKey()
	sh := shardOf(key)
	sh.mu.Lock()
	if _, ok := sh.m[key]; ok {
		delete(sh.m, key)
		bindReg.active.Add(-1)
	}
	sh.mu.Unlock()
}

// CurrentThread resolves the virtual thread bound to the calling goroutine.
// ok is false when the goroutine is not running under a controlled session,
// which is the signal for a shim primitive to delegate to the real
// implementation. When no binding exists anywhere in the process — shimmed
// code running in production — the cost is one atomic load.
func CurrentThread() (*Thread, bool) {
	if bindReg.active.Load() == 0 {
		return nil, false
	}
	key := goroutineKey()
	sh := shardOf(key)
	sh.mu.Lock()
	b, ok := sh.m[key]
	sh.mu.Unlock()
	if ok {
		b.check()
	}
	return b.t, ok
}

// Bindings returns the number of live goroutine bindings. It exists for
// leak checks: after a session (or a closed pool) no binding may survive.
func Bindings() int { return int(bindReg.active.Load()) }

// ShimCache scopes a lazily created scheduler object to one schedule of
// one Execution. A zero-argument frontend primitive (surwsync.Mutex and
// friends) owns one ShimCache: the first operation of a schedule creates
// the backing scheduler object and caches it; later operations in the same
// schedule hit the cache; the next schedule (the Execution's reset bumps
// its generation) misses and rebuilds.
//
// Entries are keyed by *Execution, not by (execution, generation): each
// execution has exactly one live generation at a time, so a stale entry is
// overwritten in place and the cache never grows beyond the number of
// executions that ever touched the primitive (bounded by the worker count
// of a parallel runner). The first execution to touch the primitive takes
// an inline slot; only a second one (parallel sessions sharing a
// package-level primitive) allocates the overflow map, so a primitive
// created inside a schedule costs no allocation of its own. Entries are
// only read through the owning execution's current thread, whose
// goroutine never runs concurrently with that execution's reset — the
// generation read is race-free. The cache's own mutex only arbitrates
// between threads of *different* executions.
//
// Objects built through a ShimCache do not recycle their handles across
// the schedules of a pooled Execution (see Pool): each schedule's backing
// object is a distinct pointer, so a frontend can tell its objects apart
// by identity as well as by state.
//
// The zero ShimCache is ready to use.
type ShimCache struct {
	mu    sync.Mutex
	ex    *Execution // owner of the inline slot; nil until first use
	first shimEntry
	more  map[*Execution]shimEntry // every other execution
}

type shimEntry struct {
	gen uint64
	obj any
}

// Resolve returns the object cached for t's current schedule, calling
// build to create it on the first operation of the schedule. build must
// not block or emit events (object creation is not an event, so the
// standard constructors qualify); it runs under the cache's mutex.
func (c *ShimCache) Resolve(t *Thread, build func(*Thread) any) any {
	ex, gen := t.ex, t.ex.gen
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ex == ex && c.first.gen == gen {
		return c.first.obj
	}
	if c.ex == nil || c.ex == ex {
		c.ex, c.first = ex, shimEntry{gen: gen, obj: buildUnrecycled(t, build)}
		return c.first.obj
	}
	if e, ok := c.more[ex]; ok && e.gen == gen {
		return e.obj
	}
	if c.more == nil {
		c.more = make(map[*Execution]shimEntry, 1)
	}
	obj := buildUnrecycled(t, build)
	c.more[ex] = shimEntry{gen: gen, obj: obj}
	return obj
}

// buildUnrecycled runs build and drops the recorded handles of the objects
// it created, so the next schedule's constructors allocate fresh ones.
func buildUnrecycled(t *Thread, build func(*Thread) any) any {
	ex := t.ex
	n := len(ex.objs)
	obj := build(t)
	for i := n; i < len(ex.objs); i++ {
		ex.objs[i].handle = nil
	}
	return obj
}
