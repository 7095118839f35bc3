package main

// Probes measure single layers from outside the program: each calls one
// layer's public functions on the workload's own corpus, queries and
// answers, and times the calls. They run in the traced run only, after the
// timed phase, so they never disturb the end-to-end metrics.

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/httpapi"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/queryparse"
	"github.com/urbandata/datapolygamy/internal/relationship"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/scalar"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/temporal"
	"github.com/urbandata/datapolygamy/internal/topology"
)

// evalSpatial and evalTemporal are the framework's default evaluation
// resolutions (core.Options with nil EvalSpatial/EvalTemporal).
var (
	evalSpatial  = []spatial.Resolution{spatial.ZipCode, spatial.Neighborhood, spatial.City}
	evalTemporal = []temporal.Resolution{temporal.Hour, temporal.Day, temporal.Week, temporal.Month}
)

// graphBuilds is how many corpus-wide graph builds an in-process
// graph_build_s is the median of.
const graphBuilds = 3

// buildGraphs builds fw's relationship graph graphBuilds times, under
// clauses that differ only in the permutation count so that each build
// re-tests every pair, and returns the median build time in seconds. The
// last build, at perms, is the graph fw keeps.
func buildGraphs(e *env, fw *core.Framework, perms int) (float64, core.GraphStats, error) {
	var secs []float64
	var gs core.GraphStats
	for p := perms - graphBuilds + 1; p <= perms; p++ {
		s, st, err := buildGraph(e, fw, p)
		if err != nil {
			return 0, gs, err
		}
		secs, gs = append(secs, s), st
	}
	return median(secs), gs, nil
}

// buildGraph times one corpus-wide graph build at perms permutations, from
// a freshly collected heap.
func buildGraph(e *env, fw *core.Framework, perms int) (float64, core.GraphStats, error) {
	runtime.GC()
	var gs core.GraphStats
	var err error
	t0 := time.Now()
	e.tr.do("core.BuildGraph", "graph", 0, func() { gs, err = fw.BuildGraph(core.Clause{Permutations: perms}) })
	if !e.t.op(err) {
		return 0, gs, fmt.Errorf("graph build: %w", err)
	}
	return time.Since(t0).Seconds(), gs, nil
}

// probeLayers runs every probe. fw is an in-process framework holding the
// workload's corpus ds, built by a BuildIndex that reported ist; answers are
// the workload's queries as fw answers them. The store probe loads snap
// into loadInto, a framework whose corpus matches the snapshot.
func probeLayers(e *env, fw *core.Framework, city *spatial.CityMap, ds []*dataset.Dataset, ist core.IndexStats,
	answers []answered, loadInto *core.Framework, snap string, out map[string]float64) error {
	var qs []core.Query
	var texts []string
	var rels [][]core.Relationship
	var pvals [][]float64
	var corrs []stats.Correction
	for _, a := range answers {
		qs, texts, rels = append(qs, a.q), append(texts, a.text), append(rels, a.rels)
		var ps []float64
		for _, r := range a.rels {
			ps = append(ps, r.PValue)
		}
		pvals, corrs = append(pvals, ps), append(corrs, a.q.Clause.Correction)
	}
	out["core.index_build_ms"] = ms(ist.WallDuration)
	var err error
	e.tr.do("probe.index", "probe", 0, func() { err = indexProbe(e, fw, city, ds, ist, out) })
	if err != nil {
		return err
	}
	e.tr.do("probe.relationship+montecarlo", "probe", 0, func() { relationshipProbe(fw, qs, out) })
	e.tr.do("probe.stats", "probe", 0, func() { adjustProbe(pvals, corrs, out) })
	e.tr.do("probe.queryparse", "probe", 0, func() { parseProbe(texts, out) })
	e.tr.do("probe.httpapi", "probe", 0, func() { encodeProbe(rels, out) })
	if g, ok := fw.RelGraph(); ok {
		e.tr.do("probe.relgraph", "probe", 0, func() { graphProbe(g, out) })
	}
	e.tr.do("probe.store", "probe", 0, func() { err = loadProbe(loadInto, snap, out) })
	return err
}

// indexProbe recomputes every indexed function layer by layer: scalar
// computation on the corpus timeline, join and split merge trees, and
// salient plus extreme feature extraction. Its function count must equal
// the one BuildIndex reported, or the probe measured a different index.
func indexProbe(e *env, fw *core.Framework, city *spatial.CityMap, ds []*dataset.Dataset, ist core.IndexStats, out map[string]float64) error {
	minTS, maxTS := int64(1<<62), int64(-1<<62)
	for _, d := range ds {
		if lo, hi, ok := d.TimeRange(); ok {
			minTS, maxTS = min(minTS, lo), max(maxTS, hi)
		}
	}
	var compute, trees, extract time.Duration
	var functions, critical, sets int
	for _, d := range ds {
		for _, sr := range evalSpatial {
			for _, tr := range evalTemporal {
				if !d.SpatialRes.ConvertibleTo(sr) || !d.TemporalRes.ConvertibleTo(tr) {
					continue
				}
				g, ok := fw.Graph(core.Resolution{Spatial: sr, Temporal: tr})
				if !ok {
					return fmt.Errorf("index probe: no domain graph at (%s, %s)", tr, sr)
				}
				tl, err := temporal.NewTimeline(minTS, maxTS, tr)
				if err != nil {
					return err
				}
				for _, spec := range scalar.Specs(d) {
					t0 := time.Now()
					fn, err := scalar.ComputeOnTimeline(d, spec, city, sr, tr, tl)
					compute += time.Since(t0)
					if err != nil {
						return fmt.Errorf("index probe: %w", err)
					}
					t0 = time.Now()
					join, split := topology.ComputeJoin(g, fn.Values), topology.ComputeSplit(g, fn.Values)
					trees += time.Since(t0)
					t0 = time.Now()
					ex := feature.NewExtractorWithTrees(fn, join, split)
					ex.Extract(feature.Salient)
					ex.Extract(feature.Extreme)
					extract += time.Since(t0)
					functions++
					critical += join.NumCriticalPoints() + split.NumCriticalPoints()
					sets += 2
				}
			}
		}
	}
	e.t.check(functions == ist.Functions, "index probe computed %d functions, BuildIndex reported %d", functions, ist.Functions)
	out["scalar.compute_ms"] = ms(compute)
	out["scalar.functions"] = float64(functions)
	out["topology.merge_tree_ms"] = ms(trees)
	out["topology.critical_points"] = float64(critical)
	out["feature.extract_ms"] = ms(extract)
	out["feature.sets"] = float64(sets)
	return nil
}

// candidate is one (function, function, class) tuple a query would plan.
type candidate struct {
	e1, e2 *core.FunctionEntry
	class  feature.Class
	perms  int
}

// candidates enumerates, without planner pruning, the tuples of the
// distinct data set pairs and resolutions the queries touch.
func candidates(fw *core.Framework, qs []core.Query) []candidate {
	seen := map[string]bool{}
	var out []candidate
	all := fw.Datasets()
	for _, q := range qs {
		src, dst := q.Sources, q.Targets
		if len(src) == 0 {
			src = all
		}
		if len(dst) == 0 {
			dst = all
		}
		classes := q.Clause.Classes
		if classes == nil {
			classes = []feature.Class{feature.Salient, feature.Extreme}
		}
		for _, a := range src {
			for _, b := range dst {
				if a == b {
					continue
				}
				a, b := min(a, b), max(a, b)
				for _, res := range resolutionsOf(q.Clause) {
					for _, class := range classes {
						key := fmt.Sprintf("%s|%s|%v|%d", a, b, res, class)
						if seen[key] {
							continue
						}
						seen[key] = true
						for _, e1 := range fw.Entries(a, res) {
							for _, e2 := range fw.Entries(b, res) {
								out = append(out, candidate{e1: e1, e2: e2, class: class, perms: q.Clause.Permutations})
							}
						}
					}
				}
			}
		}
	}
	return out
}

func resolutionsOf(c core.Clause) []core.Resolution {
	if c.Resolutions != nil {
		return c.Resolutions
	}
	var out []core.Resolution
	for _, sr := range evalSpatial {
		for _, tr := range evalTemporal {
			out = append(out, core.Resolution{Spatial: sr, Temporal: tr})
		}
	}
	return out
}

func featureSet(e *core.FunctionEntry, c feature.Class) *feature.Set {
	if c == feature.Extreme {
		return e.Extreme
	}
	return e.Salient
}

// mcProbeTests bounds the Monte Carlo probe: it tests an evenly spaced
// sample of this many related candidates.
const mcProbeTests = 300

// relationshipProbe times relationship.EvaluateCounted on every candidate of
// the queries, then montecarlo.Test on a fixed sample of the related ones
// (full-domain vectors, one worker, adaptive early stop as in the engine).
func relationshipProbe(fw *core.Framework, qs []core.Query, out map[string]float64) {
	unions := map[*feature.Set]*bitvec.Vector{}
	union := func(s *feature.Set) *bitvec.Vector {
		if u, ok := unions[s]; ok {
			return u
		}
		u := s.All()
		unions[s] = u
		return u
	}
	var evalTime time.Duration
	var calls int
	type related struct {
		c   candidate
		tau float64
	}
	var rel []related
	for _, c := range candidates(fw, qs) {
		s1, s2 := featureSet(c.e1, c.class), featureSet(c.e2, c.class)
		if s1 == nil || s2 == nil {
			continue
		}
		u1, u2 := union(s1), union(s2)
		sigma := u1.AndCount(u2)
		t0 := time.Now()
		m := relationship.EvaluateCounted(s1, s2, u1, u2, sigma)
		evalTime += time.Since(t0)
		calls++
		if m.Related() && m.Tau != 0 {
			rel = append(rel, related{c, m.Tau})
		}
	}
	out["relationship.evaluate_ms"] = ms(evalTime)
	out["relationship.calls"] = float64(calls)

	step := max(1, len(rel)/mcProbeTests)
	var testTime time.Duration
	var tests, shifts int
	for i := 0; i < len(rel) && tests < mcProbeTests; i += step {
		r := rel[i]
		g, ok := fw.Graph(r.c.e1.Res)
		if !ok {
			continue
		}
		t0 := time.Now()
		res := montecarlo.Test(featureSet(r.c.e1, r.c.class), featureSet(r.c.e2, r.c.class), g, r.tau,
			montecarlo.Config{Permutations: r.c.perms, Seed: int64(i), Workers: 1})
		testTime += time.Since(t0)
		tests++
		shifts += res.Shifts
	}
	if tests > 0 {
		out["montecarlo.test_ms"] = ms(testTime) / float64(tests)
	}
	if shifts > 0 {
		out["montecarlo.ns_per_permutation"] = float64(testTime.Nanoseconds()) / float64(shifts)
	}
}

// adjustProbe times stats.Adjust over each answer's p-values under the
// answer's own correction (BH when it had none).
func adjustProbe(answers [][]float64, corrections []stats.Correction, out map[string]float64) {
	var d time.Duration
	for i, ps := range answers {
		c := corrections[i]
		if c == stats.None {
			c = stats.BH
		}
		t0 := time.Now()
		stats.Adjust(c, ps)
		d += time.Since(t0)
	}
	out["stats.adjust_ms"] = ms(d)
}

// parseProbe times queryparse.Parse per text.
func parseProbe(texts []string, out map[string]float64) {
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range texts {
			_, _ = queryparse.Parse(q) // the texts parsed before; only the time matters here
		}
	}
	if len(texts) > 0 {
		out["queryparse.parse_us"] = float64(time.Since(t0).Microseconds()) / float64(reps*len(texts))
	}
}

// graphProbe times relationship-graph reads: TopK at several k and both
// rankings, and neighbor lookups by data set and by function.
func graphProbe(g *relgraph.Graph, out map[string]float64) {
	const reps = 5
	var topk, neigh time.Duration
	var nTop, nNeigh int
	for r := 0; r < reps; r++ {
		for _, k := range []int{10, 100, 500} {
			for _, by := range []relgraph.RankBy{relgraph.ByScore, relgraph.ByStrength} {
				t0 := time.Now()
				g.TopK(k, by)
				topk += time.Since(t0)
				nTop++
			}
		}
		for _, ds := range g.Datasets() {
			t0 := time.Now()
			g.DatasetEdges(ds)
			neigh += time.Since(t0)
			nNeigh++
		}
		for _, e := range g.TopK(20, relgraph.ByScore) {
			t0 := time.Now()
			g.Neighbors(e.Function1)
			neigh += time.Since(t0)
			nNeigh++
		}
	}
	out["relgraph.topk_us"] = float64(topk.Nanoseconds()) / 1e3 / float64(nTop)
	if nNeigh > 0 {
		out["relgraph.neighbors_us"] = float64(neigh.Nanoseconds()) / 1e3 / float64(nNeigh)
	}
}

// relWire mirrors polygamyd's relationship response shape, so the encode
// probe encodes what the server encodes.
type relWire struct {
	Function1   string  `json:"function1"`
	Function2   string  `json:"function2"`
	Dataset1    string  `json:"dataset1"`
	Dataset2    string  `json:"dataset2"`
	Spec1       string  `json:"spec1"`
	Spec2       string  `json:"spec2"`
	Spatial     string  `json:"spatial"`
	Temporal    string  `json:"temporal"`
	Class       string  `json:"class"`
	Score       float64 `json:"score"`
	Strength    float64 `json:"strength"`
	PValue      float64 `json:"pValue"`
	QValue      float64 `json:"qValue"`
	Significant bool    `json:"significant"`
}

func toWire(rels []core.Relationship) []relWire {
	out := make([]relWire, 0, len(rels))
	for _, r := range rels {
		out = append(out, relWire{
			Function1: r.Function1, Function2: r.Function2, Dataset1: r.Dataset1, Dataset2: r.Dataset2,
			Spec1: r.Spec1, Spec2: r.Spec2, Spatial: r.Res.Spatial.String(), Temporal: r.Res.Temporal.String(),
			Class: r.Class.String(), Score: r.Score, Strength: r.Strength, PValue: r.PValue, QValue: r.QValue,
			Significant: r.Significant,
		})
	}
	return out
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// encodeProbe times httpapi.WriteJSON of each answer into a discarding
// writer.
func encodeProbe(answers [][]core.Relationship, out map[string]float64) {
	w := &discardResponse{h: http.Header{}}
	var d time.Duration
	for _, rels := range answers {
		body := map[string]any{"relationships": toWire(rels)}
		t0 := time.Now()
		httpapi.WriteJSON(w, http.StatusOK, body)
		d += time.Since(t0)
	}
	if len(answers) > 0 {
		out["httpapi.encode_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(answers))
	}
}

// loadProbe times Framework.Load of a snapshot into fw (median of three)
// and counts its allocations.
func loadProbe(fw *core.Framework, snap string, out map[string]float64) error {
	var ds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fw.Load(snap); err != nil {
			return fmt.Errorf("load probe: %w", err)
		}
		ds = append(ds, ms(time.Since(t0)))
	}
	out["store.load_ms"] = median(ds)
	var loadErr error
	out["store.load_allocs"] = testing.AllocsPerRun(3, func() {
		if err := fw.Load(snap); err != nil {
			loadErr = err
		}
	})
	return loadErr
}

// runtimeSelf reads the benchmark process's own GC CPU fraction and live
// heap, for workloads whose framework runs in-process.
func runtimeSelf(out map[string]float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out["runtime.gc_cpu_frac"] = m.GCCPUFraction
	out["runtime.heap_live_mb"] = mb(float64(m.HeapAlloc))
}

// stageStats summarises QueryStats of uncached queries: per-stage p50 (and
// the per-stage sums, logged), planner counts per query, and allocation per
// query when measured.
type stageStats struct {
	stages                        map[string][]float64 // stage -> ms per query
	considered, pruned, evaluated float64
	queries                       int
	allocMB                       []float64
}

func newStageStats() *stageStats { return &stageStats{stages: map[string][]float64{}} }

func (s *stageStats) add(st core.QueryStats) {
	if st.CacheHit {
		return
	}
	for _, sg := range st.Stages {
		s.stages[sg.Stage] = append(s.stages[sg.Stage], ms(sg.Duration))
	}
	s.considered += float64(st.PairsConsidered)
	s.pruned += float64(st.Pruned)
	s.evaluated += float64(st.Evaluated)
	s.queries++
}

func (s *stageStats) report(e *env, out map[string]float64) {
	names := make([]string, 0, len(s.stages))
	for n := range s.stages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sum := 0.0
		for _, v := range s.stages[n] {
			sum += v
		}
		e.logf("  core stage %-10s p50 %10.3f ms  sum %12.3f ms over %d uncached queries", n, median(s.stages[n]), sum, len(s.stages[n]))
	}
	for _, n := range []string{"plan", "evaluate", "correct", "select"} {
		out["core."+n+"_ms"] = median(s.stages[n])
	}
	if s.queries > 0 {
		q := float64(s.queries)
		out["core.pairs_considered"] = s.considered / q
		out["core.pairs_pruned"] = s.pruned / q
		out["core.pairs_evaluated"] = s.evaluated / q
	}
	if s.considered > 0 {
		out["core.prune_ratio"] = s.pruned / s.considered
	}
	out["core.query_alloc_mb"] = median(s.allocMB)
}

// measureAlloc runs fn and returns the bytes it allocated, in MB.
func measureAlloc(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return mb(float64(b.TotalAlloc - a.TotalAlloc))
}

// appendLayers accumulates the per-append counters of AppendStats (or the
// equivalent job result fields) and graph refreshes.
type appendLayers struct {
	wallMS                               []float64
	extended, tilesComputed, tilesReused float64
	entriesRebuilt, entriesReused        float64
	pairsComputed, pairsReused           float64
	waitMS                               []float64
}

func (a *appendLayers) addStats(st core.AppendStats) {
	a.wallMS = append(a.wallMS, ms(st.WallDuration))
	if st.Extended {
		a.extended++
	}
	a.tilesComputed += float64(st.TilesComputed)
	a.tilesReused += float64(st.TilesReused)
	a.entriesRebuilt += float64(st.EntriesRebuilt)
	a.entriesReused += float64(st.EntriesReused)
}

func (a *appendLayers) report(out map[string]float64) {
	out["core.append_wall_ms"] = median(a.wallMS)
	out["core.append_extended"] = a.extended
	out["core.append_tiles_computed"] = a.tilesComputed
	out["core.append_tiles_reused"] = a.tilesReused
	out["core.append_entries_rebuilt"] = a.entriesRebuilt
	out["core.append_entries_reused"] = a.entriesReused
	out["core.graph_pairs_computed"] = a.pairsComputed
	out["core.graph_pairs_reused"] = a.pairsReused
	if t := a.pairsComputed + a.pairsReused; t > 0 {
		out["core.graph_reuse_ratio"] = a.pairsReused / t
	}
	out["jobs.wait_ms"] = median(a.waitMS)
}

// zeroLayers fills every per-layer metric the workload did not measure with
// 0: the layer did no work in this workload.
func zeroLayers(out map[string]float64) {
	for _, m := range layerMetrics {
		if _, ok := out[m.name]; !ok {
			out[m.name] = 0
		}
	}
}
