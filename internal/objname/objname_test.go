package objname

import (
	"fmt"
	"sync"
	"testing"
)

func TestNameMatchesSprintf(t *testing.T) {
	tab := New("lock", 4)
	for _, i := range []int{0, 3, 4, 17, -1} {
		if got, want := tab.Name(i), fmt.Sprintf("lock%d", i); got != want {
			t.Fatalf("Name(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestNameInRangeDoesNotAllocate(t *testing.T) {
	tab := New("bugstate", 100)
	tab.Name(0) // build the table
	if n := testing.AllocsPerRun(100, func() { _ = tab.Name(42) }); n != 0 {
		t.Fatalf("Name in range allocates %.1f times, want 0", n)
	}
}

// Parallel sessions share one table: concurrent first uses must all read
// the right names without a data race (make race runs this package).
func TestNameConcurrentFirstUse(t *testing.T) {
	tab := New("sock", 16)
	var wg sync.WaitGroup
	got := make([][]string, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				got[g] = append(got[g], tab.Name(i))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, name := range got[g] {
			if name != fmt.Sprintf("sock%d", i) {
				t.Fatalf("goroutine %d got %q at %d", g, name, i)
			}
		}
	}
}
