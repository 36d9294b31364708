//go:build race

package sched

import (
	"strings"
	"testing"
)

// The race-build cross-check must catch a binding resolved on a goroutine
// other than the one that made it — what a binding left behind on a
// recycled g looks like — within one sampling period.
func TestRaceCrossCheckCatchesStaleBinding(t *testing.T) {
	stale := binding{t: &Thread{}, goid: goidFromStack() + 1}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "outlived its goroutine") {
			t.Fatalf("stale binding not reported; recovered %q", msg)
		}
	}()
	for i := 0; i < 64; i++ {
		stale.check()
	}
}

// A binding checked on its own goroutine passes every sample.
func TestRaceCrossCheckAcceptsLiveBinding(t *testing.T) {
	live := newBinding(&Thread{})
	for i := 0; i < 256; i++ {
		live.check()
	}
}
