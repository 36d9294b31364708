// Package objname formats the indexed object names target programs give
// their shared objects ("lock3", "bugstate42") once per process instead of
// once per schedule. A program body runs every schedule of a session, and
// formatting its names with fmt.Sprintf each time was a large share of a
// schedule's allocations and CPU.
package objname

import (
	"strconv"
	"sync"
)

// Table holds the names prefix0 .. prefix(n-1). It is built lazily, on the
// first Name call, so declaring one (or constructing the targets that use
// it) formats nothing. A Table is safe for concurrent use.
type Table struct {
	prefix string
	names  func() []string
}

// New returns the table of n names with the given prefix.
func New(prefix string, n int) Table {
	return Table{prefix: prefix, names: sync.OnceValue(func() []string {
		names := make([]string, n)
		for i := range names {
			names[i] = prefix + strconv.Itoa(i)
		}
		return names
	})}
}

// Name returns prefix followed by the decimal i: the table's copy when i is
// in range, a freshly formatted string otherwise.
func (t Table) Name(i int) string {
	if names := t.names(); i >= 0 && i < len(names) {
		return names[i]
	}
	return t.prefix + strconv.Itoa(i)
}
