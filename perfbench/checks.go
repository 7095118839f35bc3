package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/obsv"
)

// Answer checks. They hold under any correct change to the engine,
// including a different exceedance rule or a shared randomization plan, so
// none of them pins a p-value: they check the invariants an answer must
// keep whatever its numbers are.

// classRank orders feature classes the way answers are sorted.
var classRank = map[string]int{
	feature.Salient.String(): int(feature.Salient),
	feature.Extreme.String(): int(feature.Extreme),
}

// checkAnswer checks one answer, counting one check per invariant:
// every q-value is at least its p-value, a relationship is Significant
// exactly when its q-value is at most alpha, and the answer keeps its
// (function1, function2, class) order.
func checkAnswer(t *tally, what string, rels []relWire, alpha float64) {
	if alpha <= 0 {
		alpha = 0.05
	}
	qge, sig, order := true, true, true
	for i, r := range rels {
		if r.QValue < r.PValue {
			qge = false
		}
		if r.Significant != (r.QValue <= alpha) {
			sig = false
		}
		if i > 0 && !wireLess(rels[i-1], r) {
			order = false
		}
	}
	t.check(qge, "%s: a q-value is below its p-value", what)
	t.check(sig, "%s: Significant disagrees with q <= %g", what, alpha)
	t.check(order, "%s: answer order is not (function1, function2, class)", what)
}

// wireLess reports a <= b in answer order.
func wireLess(a, b relWire) bool {
	if a.Function1 != b.Function1 {
		return a.Function1 < b.Function1
	}
	if a.Function2 != b.Function2 {
		return a.Function2 < b.Function2
	}
	return classRank[a.Class] <= classRank[b.Class]
}

// prom is one scrape of Prometheus text: series ("name{labels}") to value.
type prom map[string]float64

func parseProm(text []byte) prom {
	p := prom{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// sum adds every series of the metric name whose labels contain all of
// the given label fragments (e.g. `route="GET /v1/query"`).
func (p prom) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range p {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after − before for one metric.
func delta(before, after prom, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// selfProm scrapes the benchmark process's own instruments: the registry
// /metrics would export if this process served it.
func selfProm() prom {
	var b bytes.Buffer
	_ = obsv.Default.WritePrometheus(&b) // writes to a bytes.Buffer cannot fail
	return parseProm(b.Bytes())
}

// mcLayers reads the Monte Carlo and cache counters between two scrapes.
func mcLayers(before, after prom, out map[string]float64) {
	tests := delta(before, after, "polygamy_montecarlo_tests_total")
	out["montecarlo.tests"] = tests
	out["montecarlo.permutations"] = delta(before, after, "polygamy_montecarlo_permutations_total")
	out["montecarlo.early_stop_ratio"] = 0
	if tests > 0 {
		out["montecarlo.early_stop_ratio"] = delta(before, after, "polygamy_montecarlo_early_stops_total") / tests
	}
	out["core.cache_hit_ratio"] = 0
	if q := delta(before, after, "polygamy_queries_total"); q > 0 {
		out["core.cache_hit_ratio"] = delta(before, after, "polygamy_query_cache_hits_total") / q
	}
}

// saveLayer reads the mean snapshot save time between two scrapes.
func saveLayer(before, after prom, out map[string]float64) {
	if n := delta(before, after, "polygamy_snapshot_save_duration_seconds_count"); n > 0 {
		out["store.save_ms"] = 1e3 * delta(before, after, "polygamy_snapshot_save_duration_seconds_sum") / n
	}
}
