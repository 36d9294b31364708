//go:build !amd64 && !arm64

package sched

// goroutineKey names the calling goroutine by its ID, parsed from the
// stack header: the fallback on architectures without a getg stub. It
// costs a shallow stack dump and one allocation per call.
func goroutineKey() uintptr { return uintptr(goidFromStack()) }
