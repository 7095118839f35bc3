// Command perfbench is the repository benchmark: three seeded workloads,
// each driving a different layer of the Data Polygamy engine, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. See README.md for the workloads, metrics and how to run them.
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The human-readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit. For per-layer metrics
// moves says which end-to-end metric on which workload the layer should
// move.
type metricSpec struct {
	name, unit, moves string
}

// e2eMetrics are reported by every workload's untraced run. error_rate is
// the result line's failed/attempted.
var e2eMetrics = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_tail_ms", unit: "ms"},
	{name: "queries_per_s", unit: "1/s"},
	{name: "append_p50_ms", unit: "ms"},
	{name: "appends_per_s", unit: "1/s"},
	{name: "graph_build_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "snapshot_mb", unit: "MB"},
}

// layerMetrics are reported by every workload's traced run. A layer the
// workload does not exercise reads 0.
var layerMetrics = []metricSpec{
	{"core.plan_ms", "ms", "query_p50_ms/explore"},
	{"core.evaluate_ms", "ms", "query_p50_ms/explore"},
	{"core.correct_ms", "ms", "query_tail_ms/explore"},
	{"core.select_ms", "ms", "query_tail_ms/explore"},
	{"core.pairs_considered", "count", "query_p50_ms/explore"},
	{"core.pairs_pruned", "count", "query_p50_ms/explore"},
	{"core.prune_ratio", "ratio", "query_p50_ms/explore"},
	{"core.pairs_evaluated", "count", "query_p50_ms/explore"},
	{"core.query_alloc_mb", "MB", "query_p50_ms/explore, peak_rss_mb/all"},
	{"montecarlo.tests", "count", "queries_per_s/explore, append_p50_ms/grow"},
	{"montecarlo.permutations", "count", "queries_per_s/explore, append_p50_ms/grow"},
	{"montecarlo.early_stop_ratio", "ratio", "queries_per_s/explore, append_p50_ms/grow"},
	{"montecarlo.test_ms", "ms", "queries_per_s/explore, append_p50_ms/grow"},
	{"montecarlo.ns_per_permutation", "ns", "queries_per_s/explore, append_p50_ms/grow"},
	{"relationship.evaluate_ms", "ms", "query_p50_ms/explore"},
	{"relationship.calls", "count", "query_p50_ms/explore"},
	{"stats.adjust_ms", "ms", "query_tail_ms/explore"},
	{"scalar.compute_ms", "ms", "setup_s/explore, append_p50_ms/grow"},
	{"scalar.functions", "count", "setup_s/explore, append_p50_ms/grow"},
	{"topology.merge_tree_ms", "ms", "setup_s/explore, append_p50_ms/grow"},
	{"topology.critical_points", "count", "setup_s/explore, append_p50_ms/grow"},
	{"feature.extract_ms", "ms", "setup_s/explore, append_p50_ms/grow"},
	{"feature.sets", "count", "setup_s/explore, append_p50_ms/grow"},
	{"core.index_build_ms", "ms", "setup_s/explore, append_p50_ms/grow"},
	{"core.append_wall_ms", "ms", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.append_extended", "count", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.append_tiles_computed", "count", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.append_tiles_reused", "count", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.append_entries_rebuilt", "count", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.append_entries_reused", "count", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.graph_pairs_computed", "count", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.graph_pairs_reused", "count", "append_p50_ms/grow, appends_per_s/grow"},
	{"core.graph_reuse_ratio", "ratio", "append_p50_ms/grow, appends_per_s/grow"},
	{"jobs.wait_ms", "ms", "append_p50_ms/grow, appends_per_s/grow"},
	{"store.save_ms", "ms", "append_p50_ms/grow"},
	{"store.load_ms", "ms", "setup_s/serve"},
	{"store.load_allocs", "count", "setup_s/serve"},
	{"polygamyd.server_ms", "ms", "query_p50_ms/serve"},
	{"polygamyd.transport_ms", "ms", "query_p50_ms/serve"},
	{"core.cache_hit_ratio", "ratio", "query_p50_ms/serve"},
	{"polygamyd.response_kb", "KB", "query_tail_ms/serve"},
	{"queryparse.parse_us", "us", "query_p50_ms/serve"},
	{"relgraph.topk_us", "us", "query_p50_ms/serve"},
	{"relgraph.neighbors_us", "us", "query_p50_ms/serve"},
	{"httpapi.encode_us", "us", "query_tail_ms/serve"},
	{"runtime.gc_cpu_frac", "ratio", "peak_rss_mb/all"},
	{"runtime.heap_live_mb", "MB", "peak_rss_mb/all"},
}

// env is what a workload runs with.
type env struct {
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	polygamyd string // path of the polygamyd binary
	work      string // scratch directory, removed at exit
	traceDir  string // where the traced run writes its spans
	tr        *tracer
	t         *tally
	log       io.Writer
	start     time.Time
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// phase logs that a phase of the run is done, with the time since the run
// started.
func (e *env) phase(what string) { e.logf("  [%6.1fs] %s", time.Since(e.start).Seconds(), what) }

// outcome is what a workload measured. overhead holds, for the traced run,
// the traced minus untraced value of each end-to-end metric the traced
// repeat re-measured.
type outcome struct {
	e2e      map[string]float64
	layers   map[string]float64
	overhead map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, overhead: map[string]float64{}}
}

var workloads = map[string]func(*env) (*outcome, error){
	"explore": runExplore,
	"serve":   runServe,
	"grow":    runGrow,
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: explore, serve or grow")
		seed      = flag.Int64("seed", 1, "input seed: corpus, slices, query mix and Zipf draws")
		seconds   = flag.Int("seconds", 12, "length of the timed phase in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root      = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
		polygamyd = flag.String("polygamyd", "", "path of the polygamyd binary (serve and grow)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload explore|serve|grow, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	base := filepath.Join(*root, ".bench_build")
	work, err := os.MkdirTemp(mkdir(base), fmt.Sprintf("work-%s-%d-", *workload, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, polygamyd: *polygamyd, work: work,
		traceDir: mkdir(filepath.Join(base, "traces")),
		tr:       newTracer(), t: &tally{}, log: os.Stderr, start: time.Now(),
	}
	cpu0 := readCPUTimes()
	out, err := run(e)
	os.RemoveAll(work)
	if steal, ok := cpu0.stealShare(readCPUTimes()); ok {
		e.logf("  host CPU steal during the run: %.1f%% of CPU time", 100*steal)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := resultLine(e, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first file created in it
	return dir
}

// resultLine reports the run: the human-readable table on the log, the
// JSON result as the returned line.
func resultLine(e *env, out *outcome) (string, error) {
	specs, values := e2eMetrics, out.e2e
	if e.traced {
		specs, values = layerMetrics, out.layers
	}
	attempted, failed := e.t.counts()
	e.logf("perfbench %s seed=%d: attempted=%d failed=%d error_rate=%.4g", e.workload, e.seed, attempted, failed, e.t.errorRate())
	for _, msg := range e.t.errors {
		e.logf("  FAILED: %s", msg)
	}
	for _, m := range e2eMetrics {
		line := fmt.Sprintf("  %-28s %14.4f %s", m.name, out.e2e[m.name], m.unit)
		if d, ok := out.overhead[m.name]; ok {
			line += fmt.Sprintf("   tracing overhead %+.4f %s", d, m.unit)
		}
		e.logf("%s", line)
	}
	if e.traced {
		e.logf("  %-30s %14s %-6s %s", "per-layer metric", "value", "unit", "should move (metric/workload)")
		for _, m := range layerMetrics {
			e.logf("  %-30s %14.4f %-6s %s", m.name, out.layers[m.name], m.unit, m.moves)
		}
	}
	metrics := map[string]map[string]any{}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return "", fmt.Errorf("workload %s did not report %s", e.workload, m.name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed operation exceeds every limit
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	blob, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	return string(blob), err
}

// logTail records which percentile query_tail_ms is and on how many
// samples (for serve: per slice, for the smallest slice).
func (e *env) logTail(t tail) {
	e.logf("  query_tail_ms is p%g of %d samples, %d beyond it", t.Percentile, t.N, t.Beyond)
}

// overheadOf records traced − untraced for each end-to-end metric both
// runs measured.
func (o *outcome) overheadOf(untraced, traced map[string]float64) {
	for k, v := range traced {
		if u, ok := untraced[k]; ok {
			o.overhead[k] = v - u
		}
	}
}

// spanSummary logs self time per span name and writes the spans out.
func spanSummary(e *env) error {
	spans := e.tr.snapshot()
	byName := selfTimeByName(spans)
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	e.logf("  spans: %d; self time by span name:", len(spans))
	for _, n := range names {
		e.logf("    %-40s %12.3f ms", n, ms(byName[n]))
	}
	path := filepath.Join(e.traceDir, fmt.Sprintf("%s-%d.json", e.workload, e.seed))
	e.logf("  spans written to %s", path)
	return e.tr.write(path)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes float64) float64 { return bytes / (1 << 20) }

// vmHWM reads the peak resident set size (VmHWM) of a process in MB.
func vmHWM(pid string) (float64, error) {
	blob, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTimes is the machine-wide CPU time counters of /proc/stat, in ticks.
type cpuTimes struct {
	total, steal float64
	ok           bool
}

func readCPUTimes() cpuTimes {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	c.ok = true
	return c
}

// stealShare is the share of CPU time between c and later that the
// hypervisor gave to other guests. Wall-clock figures of a run with a high
// share are slower for reasons outside the program.
func (c cpuTimes) stealShare(later cpuTimes) (float64, bool) {
	if !c.ok || !later.ok || later.total <= c.total {
		return 0, false
	}
	return (later.steal - c.steal) / (later.total - c.total), true
}

func fileMB(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return mb(float64(st.Size())), nil
}
