package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail read from fewer samples is noise.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule. ok is false when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return math.NaN(), false
	}
	return s[rank], true
}

// pct is percentile without the flag: NaN marks a missing tail, which the
// caller's finiteness check turns into a failed run.
func pct(xs []float64, q float64) float64 {
	v, _ := percentile(xs, q)
	return v
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
