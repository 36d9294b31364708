//go:build race

package sched

import (
	"fmt"
	"sync/atomic"
)

// binding is one registry entry: the bound virtual thread plus, in race
// builds, the stack-parsed ID of the goroutine that bound it.
type binding struct {
	t    *Thread
	goid int64
}

func newBinding(t *Thread) binding { return binding{t: t, goid: goidFromStack()} }

// checkTick samples the cross-check: one CurrentThread hit in 64 pays the
// stack parse.
var checkTick atomic.Uint32

// check catches a stale binding: the runtime reuses a g after its
// goroutine exits, so a binding that outlived its goroutine (a missing
// UnbindGoroutine) would silently resolve on whichever goroutine gets the
// recycled g next.
func (b binding) check() {
	if checkTick.Add(1)%64 != 0 {
		return
	}
	if id := goidFromStack(); id != b.goid {
		panic(fmt.Sprintf("sched: goroutine %d resolved the binding made by goroutine %d; "+
			"a goroutine binding outlived its goroutine (BindGoroutine without UnbindGoroutine)", id, b.goid))
	}
}
