//go:build !race

package sched

// binding is one registry entry: the bound virtual thread. Race builds
// also record the binding goroutine's ID (binding_race.go).
type binding struct{ t *Thread }

func newBinding(t *Thread) binding { return binding{t: t} }

// check is the race-build cross-check; a no-op otherwise.
func (binding) check() {}
