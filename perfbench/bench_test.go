package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the rule must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{20, 10, 50, 10},    // p75 would leave 5 beyond
		{40, 30, 75, 10},    // p90 would leave 4
		{100, 90, 90, 10},   // p95 would leave 5
		{189, 171, 90, 18},  // p95 would leave 9
		{1000, 990, 99, 10}, // p99.5 would leave 5
		{5000, 4975, 99.5, 25},
		{20000, 19980, 99.9, 20},
	} {
		got, ok := tailPercentile(seq(tc.n))
		if !ok {
			t.Fatalf("n=%d: no tail", tc.n)
		}
		if got.Value != tc.value || got.Percentile != tc.pct || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at p%v with %d beyond", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, got.Beyond)
		}
	}
	for _, n := range []int{0, 1, 10, 19} {
		if _, ok := tailPercentile(seq(n)); ok {
			t.Errorf("n=%d: a tail with fewer than %d samples beyond it", n, minBeyond)
		}
	}
}

// A failed operation is recorded at failedLatency: it counts against every
// latency limit, including the tail.
func TestTailCountsFailures(t *testing.T) {
	xs := seq(100)
	for i := 0; i < minBeyond+1; i++ {
		xs[i] = failedLatency
	}
	got, _ := tailPercentile(xs)
	if !math.IsInf(got.Value, 1) {
		t.Errorf("with %d failures in 100 the tail is %v, want +Inf", minBeyond+1, got.Value)
	}
	if m := median([]float64{1, 2, failedLatency}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTallyErrorRate(t *testing.T) {
	var ta tally
	if ta.errorRate() != 0 {
		t.Fatal("empty tally has a nonzero error rate")
	}
	ta.op(nil)
	ta.op(errors.New("status 503"))                  // refused
	ta.op(errors.New("job job-3 failed: disk full")) // failed job
	ta.check(true, "never reported")                 // passing check
	ta.check(false, "%s: answer order", "q1")        // failed check
	if a, f := ta.counts(); a != 5 || f != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", a, f)
	}
	if r := ta.errorRate(); r != 0.6 {
		t.Errorf("error rate %v, want 0.6", r)
	}
	want := []string{"status 503", "job job-3 failed: disk full", "q1: answer order"}
	if !reflect.DeepEqual(ta.errors, want) {
		t.Errorf("kept errors %q, want %q", ta.errors, want)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "query", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a: union 10..50
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past its parent: 90..100 counts
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Name: "other", Start: 0, End: 5 * ms},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms, 6: 5 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	byName := selfTimeByName(append(spans, span{ID: 7, Name: "a", Start: 0, End: 2 * ms}))
	if byName["a"] != 22*ms {
		t.Errorf("self time of a = %v, want 22ms", byName["a"])
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer()
	tr.do("x", "op", 0, func() {})
	if len(tr.snapshot()) != 0 {
		t.Fatal("a disabled tracer recorded a span")
	}
	tr.setEnabled(true)
	id := tr.start("outer", "op-1", 0)
	tr.do("inner", "op-1", id, func() {})
	tr.end(id)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End || s[1].Op != "op-1" {
		t.Errorf("spans %+v", s)
	}
}

var mixNames = []string{"gas_prices", "collisions", "complaints_311", "calls_911", "citibike", "weather", "traffic_speed", "taxi", "twitter"}

func TestMixDeterministic(t *testing.T) {
	a, b, c := exploreRound(1, 0, mixNames, demoCorpus), exploreRound(1, 0, mixNames, demoCorpus), exploreRound(2, 0, mixNames, demoCorpus)
	if !reflect.DeepEqual(a, b) {
		t.Error("explore: the same seed gave different mixes")
	}
	if reflect.DeepEqual(a, c) || len(a) != len(c) {
		t.Errorf("explore: seeds 1 and 2 gave mixes of %d and %d texts, want different mixes of one size", len(a), len(c))
	}
	if len(a) != 36*2+9 {
		t.Errorf("explore round has %d texts, want %d", len(a), 36*2+9)
	}
	seen := map[string]bool{}
	for r := 0; r < 3; r++ {
		for _, q := range exploreRound(1, r, mixNames, demoCorpus) {
			if seen[q] {
				t.Fatalf("text repeats, so it would hit the cache: %q", q)
			}
			seen[q] = true
		}
	}

	// The serve mix is a fixed list of requests; the seed draws the
	// request sequence over it.
	items := serveMix(mixNames)
	if len(items) != 36+4+12 {
		t.Errorf("serve mix has %d requests, want 52", len(items))
	}
	requests := func(seed int64) []string {
		z := zipfSource(seed, 0, len(items))
		out := make([]string, 2000)
		for i := range out {
			out[i] = items[z.Uint64()].Path
		}
		return out
	}
	ra, rb, rc := requests(1), requests(1), requests(2)
	if !reflect.DeepEqual(ra, rb) {
		t.Error("serve: the same seed gave different request sequences")
	}
	if reflect.DeepEqual(ra, rc) {
		t.Error("serve: seeds 1 and 2 gave the same request sequence")
	}
	distinct := func(rs []string) int {
		m := map[string]bool{}
		for _, r := range rs {
			m[r] = true
		}
		return len(m)
	}
	if da, dc := distinct(ra), distinct(rc); da < len(items)/2 || dc < len(items)/2 || math.Abs(float64(da-dc)) > 0.2*float64(da) {
		t.Errorf("serve: seeds 1 and 2 drew %d and %d distinct requests of %d, want similar spreads", da, dc, len(items))
	}
	// Middle-out by size (item 6 has the median size), the largest (item 0)
	// moved up to bigRank.
	if o := popularityOrder([]int{70, 10, 60, 20, 50, 30, 40}); !reflect.DeepEqual(o, []int{6, 5, 0, 4, 3, 2, 1}) {
		t.Errorf("popularity order %v, want [6 5 0 4 3 2 1]", o)
	}
}

func TestGrowStreamDeterministic(t *testing.T) {
	gen := func(seed int64) ([]int, []int64) {
		spec := growSpec(2*growStreamWindows + growSpareWindows)
		_, ds, err := spec.generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		base, windows := growStream(ds, spec)
		if len(windows) < 2*growStreamWindows {
			t.Fatalf("seed %d: %d complete windows, want at least %d", seed, len(windows), 2*growStreamWindows)
		}
		var sizes []int
		for _, b := range base {
			sizes = append(sizes, len(b.Tuples))
		}
		var last []int64
		var end int64
		for _, w := range windows {
			sizes = append(sizes, -1)
			if len(w) != len(growFeeds) || w[0].Name != growExtender {
				t.Fatalf("a window holds %d slices, first %s; want one per feed, %d, %s first", len(w), w[0].Name, len(growFeeds), growExtender)
			}
			_, first, _ := w[0].TimeRange()
			if first <= end {
				t.Fatalf("seed %d: a window's first slice does not extend the range", seed)
			}
			end = first
			for i, s := range w {
				sizes = append(sizes, len(s.Tuples))
				_, hi, _ := s.TimeRange()
				if hi > first {
					t.Fatalf("window slice %d ends after the first; only the first may extend the range", i)
				}
				if i > 1 && s.Name < w[i-1].Name {
					t.Fatalf("window slices %d and %d are not in name order", i-1, i)
				}
				last = append(last, hi)
			}
		}
		return sizes, last
	}
	for seed := int64(3); seed <= 40; seed++ {
		gen(seed) // every window complete, the first slice the only one to extend the range
	}
	a, ta := gen(1)
	b, tb := gen(1)
	c, _ := gen(2)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ta, tb) {
		t.Error("grow: the same seed gave different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("grow: seeds 1 and 2 gave the same stream")
	}
	var na, nc int
	for _, v := range a {
		na += max(v, 0)
	}
	for _, v := range c {
		nc += max(v, 0)
	}
	if math.Abs(float64(na-nc)) > 0.2*float64(na) {
		t.Errorf("grow: seeds 1 and 2 gave %d and %d records, want similar sizes", na, nc)
	}
}

// Every seed's late records fill every part, all of one data set, and no
// late slice extends the corpus range, so explore and serve always append
// the same number of in-range slices.
func TestHoldBackParts(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		_, ds, err := demoCorpus.generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		var corpusEnd int64
		for _, d := range ds {
			if _, hi, ok := d.TimeRange(); ok {
				corpusEnd = max(corpusEnd, hi)
			}
		}
		base, late := holdBack(ds, demoCorpus.end(), serveLateParts)
		if len(base) != len(ds) || len(late) != serveLateParts {
			t.Fatalf("seed %d: %d base data sets and %d late slices, want %d and %d", seed, len(base), len(late), len(ds), serveLateParts)
		}
		for _, s := range late {
			_, hi, ok := s.TimeRange()
			if !ok || hi >= corpusEnd || s.Name != lateName {
				t.Errorf("seed %d: late slice of %s is empty, extends the corpus range or is not of %s", seed, s.Name, lateName)
			}
		}
	}
}
