//go:build amd64 || arm64

package sched

// goroutineKey names the calling goroutine by the address of its runtime
// g, read by the assembly stub in getg_$GOARCH.s: constant time,
// allocation-free, stable across stack growth (the g is not on the
// stack), and distinct among live goroutines, iter.Pull coroutine
// goroutines included. The runtime reuses a g after its goroutine exits,
// so a binding must never outlive its goroutine (see BindGoroutine).
func goroutineKey() uintptr
