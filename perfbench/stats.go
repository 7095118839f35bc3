package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// failedLatency is the latency recorded for an operation that failed or was
// refused: it exceeds every latency limit, so failures raise the percentiles
// instead of silently dropping out of them.
var failedLatency = math.Inf(1)

// median returns the midpoint median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of a sample that still has at least
// minBeyond samples above it.
type tail struct {
	Value      float64 // the sample at that percentile (nearest rank)
	Percentile float64
	Beyond     int // samples above it (>= minBeyond)
	N          int
}

// minBeyond is the number of samples a reported tail percentile must have
// beyond it, so the tail is never set by one or two outliers.
const minBeyond = 10

// tailLadder are the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 95, 90, 75, 50}

// tailPercentile applies the tail rule: the highest percentile of
// tailLadder whose nearest rank leaves at least minBeyond samples above it.
// ok is false when not even the median qualifies.
func tailPercentile(xs []float64) (t tail, ok bool) {
	for _, p := range tailLadder {
		if t := percentileOf(xs, p); t.Beyond >= minBeyond {
			return t, true
		}
	}
	return tail{N: len(xs)}, false
}

// percentileOf is the nearest-rank p-th percentile of xs.
func percentileOf(xs []float64, p float64) tail {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // nearest rank, immune to p/100 rounding up
	if rank < 1 {
		return tail{Percentile: p, N: n}
	}
	return tail{Value: sorted(xs)[rank-1], Percentile: p, Beyond: n - rank, N: n}
}

// tally counts attempted and failed operations of one run. Every operation
// the workload issues, and every answer check it makes, is one attempt; a
// non-2xx response, a failed job, an error return or a failed check is one
// failure. The first few failure messages are kept for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errors    []string
}

const keptErrors = 20

// op records one operation's outcome.
func (t *tally) op(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errors) < keptErrors {
		t.errors = append(t.errors, err.Error())
	}
	return false
}

// check records one answer check; format describes the failure.
func (t *tally) check(ok bool, format string, args ...any) bool {
	if ok {
		return t.op(nil)
	}
	return t.op(fmt.Errorf(format, args...))
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// errorRate is failed / attempted (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
