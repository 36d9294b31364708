package sched

import "fmt"

// Var is a shared int64 variable. Every access is an atomic event.
type Var struct {
	id ObjID
	ex *Execution
}

// NewVar creates a shared variable. name identifies the variable across
// schedules ("" auto-names it from creation order); init is its initial
// value. Creating an object is not itself an event.
func (t *Thread) NewVar(name string, init int64) *Var {
	id, o := t.ex.addObj(ObjVar, name, "var")
	o.val = init
	if v, ok := o.handle.(*Var); ok {
		return v // see Pool: a recycled handle names the same slot
	}
	v := &Var{id: id, ex: t.ex}
	o.handle = v
	return v
}

// ID returns the variable's object ID.
func (v *Var) ID() ObjID { return v.id }

// Name returns the variable's stable name.
func (v *Var) Name() string { return v.ex.obj(v.id).name }

// Load reads the variable (an OpRead event).
func (v *Var) Load(t *Thread) int64 {
	t.sync(OpRead, v.id)
	return v.ex.obj(v.id).val
}

// Store writes the variable (an OpWrite event).
func (v *Var) Store(t *Thread, x int64) {
	t.sync(OpWrite, v.id)
	v.ex.obj(v.id).val = x
}

// Add atomically adds d and returns the new value (an OpRMW event).
func (v *Var) Add(t *Thread, d int64) int64 {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	o.val += d
	return o.val
}

// Swap atomically replaces the value and returns the old one (OpRMW).
func (v *Var) Swap(t *Thread, x int64) int64 {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	old := o.val
	o.val = x
	return old
}

// CAS atomically compares-and-swaps (an OpRMW event).
func (v *Var) CAS(t *Thread, old, new int64) bool {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	if o.val != old {
		return false
	}
	o.val = new
	return true
}

// Update applies f to the value atomically (an OpRMW event) and returns the
// new value.
func (v *Var) Update(t *Thread, f func(int64) int64) int64 {
	t.sync(OpRMW, v.id)
	o := v.ex.obj(v.id)
	o.val = f(o.val)
	return o.val
}

// Peek returns the current value without an event. It is for use after the
// program has quiesced (e.g. computing a behaviour fingerprint in the root
// thread after joining everyone); using it to smuggle unscheduled
// communication between threads defeats the tool.
func (v *Var) Peek() int64 { return v.ex.obj(v.id).val }

// Ref is a shared variable holding an arbitrary value of type E. Accesses
// are events exactly like Var's; mutate only through Get/Set/Update so every
// access is scheduled.
type Ref[E any] struct {
	id ObjID
	ex *Execution
}

// NewRef creates a shared reference cell named name holding init.
func NewRef[E any](t *Thread, name string, init E) *Ref[E] {
	id, o := t.ex.addObj(ObjVar, name, "ref")
	o.ref = init
	if r, ok := o.handle.(*Ref[E]); ok {
		return r
	}
	r := &Ref[E]{id: id, ex: t.ex}
	o.handle = r
	return r
}

// ID returns the reference's object ID.
func (r *Ref[E]) ID() ObjID { return r.id }

// Name returns the reference's stable name.
func (r *Ref[E]) Name() string { return r.ex.obj(r.id).name }

// Get reads the cell (OpRead).
func (r *Ref[E]) Get(t *Thread) E {
	t.sync(OpRead, r.id)
	return r.ex.obj(r.id).ref.(E)
}

// Set writes the cell (OpWrite).
func (r *Ref[E]) Set(t *Thread, x E) {
	t.sync(OpWrite, r.id)
	r.ex.obj(r.id).ref = x
}

// Update applies f to the cell atomically (OpRMW) and returns the new value.
func (r *Ref[E]) Update(t *Thread, f func(E) E) E {
	t.sync(OpRMW, r.id)
	o := r.ex.obj(r.id)
	nv := f(o.ref.(E))
	o.ref = nv
	return nv
}

// Peek returns the current value without an event (see Var.Peek).
func (r *Ref[E]) Peek() E { return r.ex.obj(r.id).ref.(E) }

// Mutex is a non-reentrant mutual-exclusion lock.
type Mutex struct {
	id ObjID
	ex *Execution
}

// NewMutex creates a mutex.
func (t *Thread) NewMutex(name string) *Mutex {
	id, o := t.ex.addObj(ObjMutex, name, "mutex")
	o.owner = -1
	if m, ok := o.handle.(*Mutex); ok {
		return m
	}
	m := &Mutex{id: id, ex: t.ex}
	o.handle = m
	return m
}

// ID returns the mutex's object ID.
func (m *Mutex) ID() ObjID { return m.id }

// Name returns the mutex's stable name.
func (m *Mutex) Name() string { return m.ex.obj(m.id).name }

// Lock acquires the mutex (an OpLock event, enabled only while free).
func (m *Mutex) Lock(t *Thread) {
	t.sync(OpLock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		panic(fmt.Sprintf("sched: lock %s granted while held by T%d", o.name, o.owner))
	}
	o.owner = t.id
	t.heldMutex = append(t.heldMutex, m.id)
}

// Unlock releases the mutex (an OpUnlock event). Unlocking a mutex the
// thread does not hold is a program error and fails the schedule.
func (m *Mutex) Unlock(t *Thread) {
	t.sync(OpUnlock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != t.id {
		panic(fmt.Sprintf("unlock of %s not held by T%d", o.name, t.id))
	}
	o.owner = -1
	for i := len(t.heldMutex) - 1; i >= 0; i-- {
		if t.heldMutex[i] == m.id {
			t.heldMutex = append(t.heldMutex[:i], t.heldMutex[i+1:]...)
			break
		}
	}
}

// TryLock acquires the mutex if free (an OpRMW-style event that never
// blocks) and reports success.
func (m *Mutex) TryLock(t *Thread) bool {
	t.sync(OpRMW, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		return false
	}
	o.owner = t.id
	t.heldMutex = append(t.heldMutex, m.id)
	return true
}

// HeldBy reports the current owner without an event (-1 if free).
func (m *Mutex) HeldBy() ThreadID { return m.ex.obj(m.id).owner }

// RWMutex is a readers-writer lock: any number of concurrent readers, or
// one writer.
type RWMutex struct {
	id ObjID
	ex *Execution
}

// NewRWMutex creates a readers-writer lock.
func (t *Thread) NewRWMutex(name string) *RWMutex {
	id, o := t.ex.addObj(ObjMutex, name, "rwmutex")
	o.owner = -1
	if m, ok := o.handle.(*RWMutex); ok {
		return m
	}
	m := &RWMutex{id: id, ex: t.ex}
	o.handle = m
	return m
}

// ID returns the lock's object ID.
func (m *RWMutex) ID() ObjID { return m.id }

// Name returns the lock's stable name.
func (m *RWMutex) Name() string { return m.ex.obj(m.id).name }

// Lock acquires the write lock (an OpLock event, enabled only while no
// writer owns it and no readers are active).
func (m *RWMutex) Lock(t *Thread) {
	t.sync(OpLock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 || o.readers != 0 {
		panic(fmt.Sprintf("sched: write lock %s granted while busy", o.name))
	}
	o.owner = t.id
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock(t *Thread) {
	t.sync(OpUnlock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != t.id {
		panic(fmt.Sprintf("unlock of %s not write-held by T%d", o.name, t.id))
	}
	o.owner = -1
}

// RLock acquires a read lock (an OpRLock event, enabled while no writer
// owns the lock).
func (m *RWMutex) RLock(t *Thread) {
	t.sync(OpRLock, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		panic(fmt.Sprintf("sched: read lock %s granted while write-held", o.name))
	}
	o.readers++
}

// RUnlock releases a read lock.
func (m *RWMutex) RUnlock(t *Thread) {
	t.sync(OpRUnlock, m.id)
	o := m.ex.obj(m.id)
	if o.readers <= 0 {
		panic(fmt.Sprintf("runlock of %s with no active readers", o.name))
	}
	o.readers--
}

// TryLock acquires the write lock if free (an OpRMW-style event that never
// blocks) and reports success.
func (m *RWMutex) TryLock(t *Thread) bool {
	t.sync(OpRMW, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 || o.readers != 0 {
		return false
	}
	o.owner = t.id
	return true
}

// TryRLock acquires a read lock if no writer holds the lock (an OpRMW-style
// event that never blocks) and reports success.
func (m *RWMutex) TryRLock(t *Thread) bool {
	t.sync(OpRMW, m.id)
	o := m.ex.obj(m.id)
	if o.owner != -1 {
		return false
	}
	o.readers++
	return true
}

// Readers returns the active reader count without an event.
func (m *RWMutex) Readers() int { return m.ex.obj(m.id).readers }

// Cond is a condition variable bound to a Mutex. There are no spurious
// wakeups: a Wait returns only after a Signal or Broadcast selected it.
type Cond struct {
	id ObjID
	mu *Mutex
	ex *Execution
}

// NewCond creates a condition variable using mutex m.
func (t *Thread) NewCond(name string, m *Mutex) *Cond {
	id, o := t.ex.addObj(ObjCond, name, "cond")
	o.condMu = m.id
	o.owner = -1
	if c, ok := o.handle.(*Cond); ok && c.mu == m {
		return c
	}
	c := &Cond{id: id, mu: m, ex: t.ex}
	o.handle = c
	return c
}

// ID returns the condition variable's object ID.
func (c *Cond) ID() ObjID { return c.id }

// Name returns the condition variable's stable name.
func (c *Cond) Name() string { return c.ex.obj(c.id).name }

// Wait atomically releases the mutex and sleeps until signaled, then
// reacquires the mutex before returning. It is two events: OpWait (release
// and sleep) and OpWakeLock (reacquire, enabled once the mutex is free).
func (c *Cond) Wait(t *Thread) {
	t.sync(OpWait, c.id)
	mo := c.ex.obj(c.mu.id)
	if mo.owner != t.id {
		panic(fmt.Sprintf("cond wait on %s without holding %s", c.Name(), c.mu.Name()))
	}
	mo.owner = -1
	for i := len(t.heldMutex) - 1; i >= 0; i-- {
		if t.heldMutex[i] == c.mu.id {
			t.heldMutex = append(t.heldMutex[:i], t.heldMutex[i+1:]...)
			break
		}
	}
	co := c.ex.obj(c.id)
	co.waiters = append(co.waiters, t.id)
	t.state = tsSleeping
	if t.ex.fast {
		t.ex.sleepPoint(t) // decide the next step without a next event
	}
	t.park() // resumed only when the OpWakeLock below is granted
	t.state = tsRunning
	mo = c.ex.obj(c.mu.id)
	if mo.owner != -1 {
		panic(fmt.Sprintf("sched: wakelock on %s granted while held", c.mu.Name()))
	}
	mo.owner = t.id
	t.heldMutex = append(t.heldMutex, c.mu.id)
}

// wake moves a sleeping waiter to the ready state with an OpWakeLock event.
func (c *Cond) wake(tid ThreadID) {
	w := c.ex.threads[tid]
	w.seq++
	w.next = Event{TID: w.id, Seq: w.seq, Kind: OpWakeLock, Obj: c.mu.id,
		PathHash: w.pathHash, ObjHash: c.ex.obj(c.mu.id).hash}
	w.state = tsReady
	if c.ex.fast {
		c.ex.classify(w) // register the pending wakelock in the mutex's waitMask
	}
}

// Signal wakes the longest-sleeping waiter, if any (an OpSignal event).
func (c *Cond) Signal(t *Thread) {
	t.sync(OpSignal, c.id)
	co := c.ex.obj(c.id)
	if len(co.waiters) > 0 {
		c.wake(co.waiters[0])
		co.waiters = co.waiters[1:]
	}
}

// Broadcast wakes every waiter (an OpBroadcast event).
func (c *Cond) Broadcast(t *Thread) {
	t.sync(OpBroadcast, c.id)
	co := c.ex.obj(c.id)
	for _, w := range co.waiters {
		c.wake(w)
	}
	co.waiters = co.waiters[:0]
}

// Semaphore is a counting semaphore.
type Semaphore struct {
	id ObjID
	ex *Execution
}

// NewSemaphore creates a semaphore with the given initial count.
func (t *Thread) NewSemaphore(name string, init int) *Semaphore {
	id, o := t.ex.addObj(ObjSem, name, "sem")
	o.sem = init
	o.owner = -1
	if s, ok := o.handle.(*Semaphore); ok {
		return s
	}
	s := &Semaphore{id: id, ex: t.ex}
	o.handle = s
	return s
}

// ID returns the semaphore's object ID.
func (s *Semaphore) ID() ObjID { return s.id }

// Name returns the semaphore's stable name.
func (s *Semaphore) Name() string { return s.ex.obj(s.id).name }

// P decrements the count (an OpSemP event, enabled while count > 0).
func (s *Semaphore) P(t *Thread) {
	t.sync(OpSemP, s.id)
	o := s.ex.obj(s.id)
	if o.sem <= 0 {
		panic("sched: semP granted at zero")
	}
	o.sem--
}

// V increments the count (an OpSemV event).
func (s *Semaphore) V(t *Thread) {
	t.sync(OpSemV, s.id)
	s.ex.obj(s.id).sem++
}

// Count returns the current count without an event.
func (s *Semaphore) Count() int { return s.ex.obj(s.id).sem }
