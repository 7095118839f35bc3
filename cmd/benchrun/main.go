// Command benchrun records the performance trajectory of the framework on
// the canonical demo corpus: index build, graph build, snapshot save,
// cold/warm open, and query latency, as one schema-stable JSON document.
//
// The corpus is generated in-process (the same synthetic collection
// gendata writes), so a run needs no input files and is deterministic
// modulo machine speed. CI keeps the last committed report in the repo
// root and fails when warm open regresses beyond -factor against it:
//
//	benchrun -out BENCH_6.json
//	benchrun -compare BENCH_6.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// report is the benchmark document. The schema string names the layout;
// adding a metric is compatible, renaming or removing one is not.
type report struct {
	Schema string     `json:"schema"`
	Corpus corpusInfo `json:"corpus"`
	M      metrics    `json:"metrics"`
}

type corpusInfo struct {
	Months   int     `json:"months"`
	Scale    float64 `json:"scale"`
	Grid     int     `json:"grid"`
	Seed     int64   `json:"seed"`
	Datasets int     `json:"datasets"`
	Funcs    int     `json:"functions"`
}

type metrics struct {
	IndexBuildNS       int64   `json:"index_build_ns"`
	GraphBuildNS       int64   `json:"graph_build_ns"`
	SnapshotSaveNS     int64   `json:"snapshot_save_ns"`
	SnapshotBytes      int64   `json:"snapshot_bytes"`
	ColdOpenNS         int64   `json:"cold_open_ns"`
	WarmOpenNS         int64   `json:"warm_open_ns"`
	WarmOpenAllocs     float64 `json:"warm_open_allocs"`
	QueryUncachedP50NS int64   `json:"query_uncached_p50_ns"`
	QueryUncachedP99NS int64   `json:"query_uncached_p99_ns"`
	QueryCachedP50NS   int64   `json:"query_cached_p50_ns"`
	QueryCachedP99NS   int64   `json:"query_cached_p99_ns"`

	// Append trajectory: a tile-aligned leap-year corpus grown by one
	// slice per data set, each timed end to end (AppendSlice plus the
	// delta graph refresh), against a from-scratch rebuild over the same
	// merged corpus. The speedup is the acceptance metric of the tiled
	// temporal domain: appends must not pay for old tiles.
	AppendP50NS            int64   `json:"append_p50_ns"`
	AppendRebuildNS        int64   `json:"append_rebuild_ns"`
	AppendVsRebuildSpeedup float64 `json:"append_vs_rebuild_speedup"`
}

type config struct {
	months  int
	scale   float64
	grid    int
	seed    int64
	perms   int
	opens   int
	queries int
	out     string
	compare string
	factor  float64

	queryFactor float64
	cpuprofile  string
	memprofile  string

	appendScale float64
	appendDays  int
}

func main() {
	var c config
	flag.IntVar(&c.months, "months", 2, "corpus window length in months from 2011-01")
	flag.Float64Var(&c.scale, "scale", 0.1, "record-volume scale")
	flag.IntVar(&c.grid, "grid", 16, "city grid side")
	flag.Int64Var(&c.seed, "seed", 7, "generation / framework seed")
	flag.IntVar(&c.perms, "perms", 60, "Monte Carlo permutations per query")
	flag.IntVar(&c.opens, "opens", 10, "warm-open repetitions (p50 is reported)")
	flag.IntVar(&c.queries, "queries", 5, "query repetitions per cache mode (uncached queries re-evaluate the whole corpus, so this dominates the runtime)")
	flag.StringVar(&c.out, "out", "", "write the JSON report here (default stdout)")
	flag.StringVar(&c.compare, "compare", "", "baseline report: exit nonzero when warm open regresses beyond -factor against it")
	flag.Float64Var(&c.factor, "factor", 2.0, "allowed warm-open slowdown versus the -compare baseline")
	flag.Float64Var(&c.queryFactor, "query-factor", 1.5, "allowed uncached-query p50 slowdown versus the -compare baseline")
	flag.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run here")
	flag.StringVar(&c.memprofile, "memprofile", "", "write an end-of-run heap profile here")
	flag.Float64Var(&c.appendScale, "append-scale", 0.05, "record-volume scale of the append-vs-rebuild corpus (0 skips the append benchmark)")
	flag.IntVar(&c.appendDays, "append-days", 7, "length of each appended slice in days")
	flag.Parse()
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
	}
	rep, err := run(c)
	if c.cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if c.memprofile != "" {
		f, merr := os.Create(c.memprofile)
		if merr == nil {
			runtime.GC()
			merr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", merr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if c.out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(c.out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
	if c.compare != "" {
		if err := compareBaseline(c, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchrun: warm open %s within %.1fx and uncached query p50 %s within %.1fx of baseline\n",
			time.Duration(rep.M.WarmOpenNS), c.factor,
			time.Duration(rep.M.QueryUncachedP50NS), c.queryFactor)
	}
}

func run(c config) (report, error) {
	var rep report
	rep.Schema = "datapolygamy-benchrun/v1"
	rep.Corpus = corpusInfo{Months: c.months, Scale: c.scale, Grid: c.grid, Seed: c.seed}

	city, err := spatial.Generate(spatial.GridConfig(c.seed, c.grid))
	if err != nil {
		return rep, err
	}
	start := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	col, err := urban.Generate(urban.Config{
		Seed: c.seed, City: city, Start: start, End: start.AddDate(0, c.months, 0), Scale: c.scale,
	})
	if err != nil {
		return rep, err
	}
	newFramework := func() (*core.Framework, error) {
		fw, err := core.New(core.Options{City: city, Seed: c.seed})
		if err != nil {
			return nil, err
		}
		for _, d := range col.Datasets {
			if err := fw.AddDataset(d); err != nil {
				return nil, err
			}
		}
		return fw, nil
	}

	fw, err := newFramework()
	if err != nil {
		return rep, err
	}
	rep.Corpus.Datasets = len(col.Datasets)

	t0 := time.Now()
	if _, err := fw.BuildIndex(); err != nil {
		return rep, err
	}
	rep.M.IndexBuildNS = time.Since(t0).Nanoseconds()
	rep.Corpus.Funcs = fw.NumFunctions()

	clause := core.Clause{Permutations: c.perms}
	t0 = time.Now()
	if _, err := fw.BuildGraph(clause); err != nil {
		return rep, err
	}
	rep.M.GraphBuildNS = time.Since(t0).Nanoseconds()

	dir, err := os.MkdirTemp("", "benchrun")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "corpus.snap")
	t0 = time.Now()
	if err := fw.Save(snap); err != nil {
		return rep, err
	}
	rep.M.SnapshotSaveNS = time.Since(t0).Nanoseconds()
	st, err := os.Stat(snap)
	if err != nil {
		return rep, err
	}
	rep.M.SnapshotBytes = st.Size()

	// Cold open: the first load into a fresh framework — container parse,
	// first touch of the mapped pages, full corpus validation. Warm opens
	// repeat the load on the same framework, the polygamyd restart path.
	g, err := newFramework()
	if err != nil {
		return rep, err
	}
	defer g.Close()
	t0 = time.Now()
	if err := g.Load(snap); err != nil {
		return rep, err
	}
	rep.M.ColdOpenNS = time.Since(t0).Nanoseconds()
	warm := make([]int64, 0, c.opens)
	for i := 0; i < c.opens; i++ {
		t0 = time.Now()
		if err := g.Load(snap); err != nil {
			return rep, err
		}
		warm = append(warm, time.Since(t0).Nanoseconds())
	}
	rep.M.WarmOpenNS = percentile(warm, 50)
	rep.M.WarmOpenAllocs = testing.AllocsPerRun(5, func() {
		if err := g.Load(snap); err != nil {
			panic(err)
		}
	})

	// Uncached query latency: each load resets the memoised results, so
	// every iteration pays full relationship evaluation. Cached latency
	// repeats the identical query and must hit the memo.
	q := core.Query{Clause: clause}
	uncached := make([]int64, 0, c.queries)
	for i := 0; i < c.queries; i++ {
		if err := g.Load(snap); err != nil {
			return rep, err
		}
		t0 = time.Now()
		if _, _, err := g.Query(q); err != nil {
			return rep, err
		}
		uncached = append(uncached, time.Since(t0).Nanoseconds())
	}
	if _, stats, err := g.Query(q); err != nil {
		return rep, err
	} else if !stats.CacheHit {
		return rep, fmt.Errorf("repeated query missed the cache; cached latencies would be meaningless")
	}
	cached := make([]int64, 0, c.queries)
	for i := 0; i < c.queries; i++ {
		t0 = time.Now()
		if _, _, err := g.Query(q); err != nil {
			return rep, err
		}
		cached = append(cached, time.Since(t0).Nanoseconds())
	}
	rep.M.QueryUncachedP50NS = percentile(uncached, 50)
	rep.M.QueryUncachedP99NS = percentile(uncached, 99)
	rep.M.QueryCachedP50NS = percentile(cached, 50)
	rep.M.QueryCachedP99NS = percentile(cached, 99)

	if c.appendScale > 0 {
		if err := appendBench(c, city, &rep.M); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// appendBench measures corpus growth against corpus rebuild. The base
// corpus spans exactly the 2012 leap year — 8784 hours, 366 days, 53 weeks,
// 12 months: one full tile at every evaluation resolution — so a slice past
// the corpus end opens a fresh tile and dirties only its own data set. Each
// data set's slice is appended in turn and timed end to end (AppendSlice
// plus the delta graph refresh); the reference is a cold BuildIndex +
// BuildGraph over the merged corpus.
func appendBench(c config, city *spatial.CityMap, m *metrics) error {
	start := time.Date(2012, time.January, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2013, time.January, 1, 0, 0, 0, 0, time.UTC)
	base, err := urban.Generate(urban.Config{Seed: c.seed, City: city, Start: start, End: end, Scale: c.appendScale})
	if err != nil {
		return err
	}
	slices, err := urban.Generate(urban.Config{
		Seed: c.seed, City: city, Start: end, End: end.AddDate(0, 0, c.appendDays), Scale: c.appendScale,
	})
	if err != nil {
		return err
	}

	build := func(ds []*dataset.Dataset) (*core.Framework, time.Duration, error) {
		fw, err := core.New(core.Options{City: city, Seed: c.seed})
		if err != nil {
			return nil, 0, err
		}
		for _, d := range ds {
			if err := fw.AddDataset(d); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		if _, err := fw.BuildIndex(); err != nil {
			return nil, 0, err
		}
		if _, err := fw.BuildGraph(core.Clause{Permutations: c.perms}); err != nil {
			return nil, 0, err
		}
		return fw, time.Since(t0), nil
	}

	live, _, err := build(base.Datasets)
	if err != nil {
		return err
	}
	clause := core.Clause{Permutations: c.perms}
	samples := make([]int64, 0, len(slices.Datasets))
	for _, s := range slices.Datasets {
		if len(s.Tuples) == 0 {
			continue
		}
		t0 := time.Now()
		st, err := live.AppendSlice(s)
		if err != nil {
			return fmt.Errorf("append %s: %v", s.Name, err)
		}
		if _, err := live.BuildGraph(clause); err != nil {
			return err
		}
		if st.FellBack {
			return fmt.Errorf("append %s fell back to a full rebuild; the measurement would compare rebuild to rebuild", s.Name)
		}
		samples = append(samples, time.Since(t0).Nanoseconds())
	}
	if len(samples) == 0 {
		return fmt.Errorf("append benchmark produced no slices")
	}

	merged := base.Datasets
	byName := map[string]*dataset.Dataset{}
	for _, s := range slices.Datasets {
		byName[s.Name] = s
	}
	for _, d := range merged {
		if s := byName[d.Name]; s != nil {
			d.Tuples = append(d.Tuples, s.Tuples...)
		}
	}
	_, rebuild, err := build(merged)
	if err != nil {
		return err
	}

	m.AppendP50NS = percentile(samples, 50)
	m.AppendRebuildNS = rebuild.Nanoseconds()
	m.AppendVsRebuildSpeedup = float64(m.AppendRebuildNS) / float64(m.AppendP50NS)
	return nil
}

// percentile reports the p-th percentile (nearest-rank) of samples.
func percentile(samples []int64, p int) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// compareBaseline enforces the CI regression gate: the current warm open
// must stay within factor of the committed baseline's.
func compareBaseline(c config, cur report) error {
	blob, err := os.ReadFile(c.compare)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("%s: %v", c.compare, err)
	}
	if base.Schema != cur.Schema {
		return fmt.Errorf("%s: baseline schema %q, this build writes %q", c.compare, base.Schema, cur.Schema)
	}
	if base.M.WarmOpenNS <= 0 {
		return fmt.Errorf("%s: baseline has no warm-open measurement", c.compare)
	}
	if float64(cur.M.WarmOpenNS) > c.factor*float64(base.M.WarmOpenNS) {
		return fmt.Errorf("warm open regressed: %s now, %s in baseline %s (limit %.1fx)",
			time.Duration(cur.M.WarmOpenNS), time.Duration(base.M.WarmOpenNS), c.compare, c.factor)
	}
	if base.M.QueryUncachedP50NS > 0 &&
		float64(cur.M.QueryUncachedP50NS) > c.queryFactor*float64(base.M.QueryUncachedP50NS) {
		return fmt.Errorf("uncached query p50 regressed: %s now, %s in baseline %s (limit %.1fx)",
			time.Duration(cur.M.QueryUncachedP50NS), time.Duration(base.M.QueryUncachedP50NS),
			c.compare, c.queryFactor)
	}
	return nil
}
