package core

import (
	"fmt"
	"time"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/mapreduce"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/stats"
)

// This file is the relationship-graph layer of the framework: BuildGraph
// materializes the corpus-wide many-many relationship graph — the paper's
// headline artifact — by driving the query planner over every data set
// pair, and the framework keeps it as a persistent, incrementally
// maintained structure.
//
// Incrementality mirrors the index contract: *candidates* — every tested
// relationship with its raw p-value, significant or not — are cached per
// unordered data set pair, so after AddDataset + BuildIndex a BuildGraph
// call recomputes only the pairs incident to the new data set (the
// existing pairs' entries are untouched, so their p-values cannot have
// changed). Caching the full tested family rather than just the
// significant edges is what makes corpus-wide FDR control incremental:
// q-values depend on every tested p-value, so assembleGraph re-adjusts
// them over the whole cache on each build — a cheap O(E log E) pass over
// cached numbers, with no Monte Carlo re-runs. A full recompute happens
// only when the clause changes or the index itself fully rebuilds (corpus
// time-range extension drops all derived state). Per-pair Monte Carlo
// seeds are derived from the pair identity (pairSeed) and the shared
// randomization plans from the framework seed (Framework.plans), so an
// incrementally maintained graph — q-values included — is byte-identical
// to a from-scratch rebuild, and under Correction: none every edge is
// byte-identical to what a direct Query for that pair returns.
//
// Locking: a build only reads post-BuildIndex-immutable state, so
// BuildGraph holds the state lock shared — concurrent queries keep
// flowing — and serializes against other builders (and Save) on
// graphMu, which guards the pair cache. The finished graph is published
// through an atomic pointer: RelGraph never blocks, and a reader-held
// graph stays consistent while a rebuild replaces it.

// GraphStats reports what one BuildGraph call did. With incremental
// maintenance, the planner and evaluation counters cover only the pairs
// computed by that call; reused pairs contribute their cached edges
// without re-evaluation.
type GraphStats struct {
	Datasets      int // data sets in the corpus
	Pairs         int // unordered data set pairs covered by the graph
	PairsComputed int // pairs evaluated by this call
	PairsReused   int // pairs whose cached edges were kept

	PairsConsidered int // candidate tuples enumerated for computed pairs
	Pruned          int // candidates the planner skipped
	Evaluated       int // candidates with any feature relation

	Edges        int // edges in the materialized graph
	WallDuration time.Duration
}

// graphSignature canonicalises the clause a graph's *candidate cache* is
// built under; candidates cached under one signature are never reused for
// another. Correction and MaxQ are deliberately excluded: the cache stores
// the full tested family of raw p-values, which those two fields cannot
// influence — they only select edges at assembly. Changing just the
// correction therefore re-selects from the cached family (O(E log E))
// instead of re-running the all-pairs Monte Carlo fan-out. Alpha stays in
// the signature because the adaptive early stop — and thus the recorded
// p-values of insignificant candidates — depends on it.
//
// The randomization-scheme tag names how the cached p-values were drawn
// (randScheme). A candidate cache saved under another scheme — a snapshot
// or graph shard written before the shared randomization plan — carries a
// different signature, so it is re-tested wholesale instead of reused or
// delta-refreshed next to p-values of the current scheme.
func graphSignature(clause Clause) string {
	clause.Correction = stats.None
	clause.MaxQ = 0
	return querySignature(nil, nil, clause) + "|rand=" + randScheme
}

// randScheme identifies the Monte Carlo randomization scheme behind every
// p-value this engine computes: plan1 is one montecarlo.Plan per spatial
// resolution seeded with Options.Seed. Bump it whenever a change would
// alter the p-value of any candidate.
const randScheme = "plan1"

// graphSelection is the edge-selection rule applied when assembling the
// published graph from the candidate cache: the correction, its level, and
// the optional q cutoff. It is remembered next to the cache (and persisted
// in snapshots) so Load and pure-reuse builds select identically.
type graphSelection struct {
	alpha      float64
	correction stats.Correction
	maxQ       float64
	skip       bool // SkipSignificance: keep every candidate
}

func selectionFromClause(c Clause) graphSelection {
	alpha := c.Alpha
	if alpha <= 0 {
		alpha = montecarlo.DefaultAlpha
	}
	return graphSelection{alpha: alpha, correction: c.Correction, maxQ: c.MaxQ, skip: c.SkipSignificance}
}

// assembleGraph adjusts the cached candidates' p-values into q-values over
// the corpus-wide tested family and materializes the graph of the
// candidates surviving the selection rule. Candidates are copied, never
// mutated: the cache stays q-free so a later build over a grown family can
// re-adjust from the raw p-values.
func assembleGraph(cands map[graphPair][]relgraph.Edge, sel graphSelection) *relgraph.Graph {
	var all []relgraph.Edge
	for _, es := range cands {
		all = append(all, es...)
	}
	if sel.skip {
		for i := range all {
			all[i].QValue = all[i].PValue
		}
		return relgraph.New(all)
	}
	ps := make([]float64, len(all))
	for i := range all {
		ps[i] = all[i].PValue
	}
	qs := stats.Adjust(sel.correction, ps)
	kept := all[:0]
	for i, e := range all {
		if qs[i] > sel.alpha {
			continue
		}
		if sel.maxQ > 0 && qs[i] > sel.maxQ {
			continue
		}
		e.QValue = qs[i]
		kept = append(kept, e)
	}
	return relgraph.New(kept)
}

// graphPair is the unordered data set pair key of the edge cache
// (A < B). A struct key keeps arbitrary data set names collision-free.
type graphPair struct {
	A, B string
}

func makeGraphPair(a, b string) graphPair {
	if b < a {
		a, b = b, a
	}
	return graphPair{A: a, B: b}
}

// BuildGraph brings the materialized relationship graph up to date with the
// indexed corpus: every unordered data set pair is evaluated at every
// common resolution and feature class under the given clause (the zero
// Clause applies the paper's defaults), and the significant relationships
// become graph edges. With Clause.Correction set, significance is decided
// corpus-wide: q-values are adjusted over every tested pair in the corpus —
// the many-many regime where per-pair alpha floods the graph with false
// discoveries — and an edge survives when q <= alpha (and <= Clause.MaxQ,
// when set). Pairs already covered by the current graph — built with the
// same clause — are reused, so after an incremental AddDataset + BuildIndex
// only the new data set's pairs are computed; q-values are still
// re-adjusted over the full cached family, so the incremental graph is
// byte-identical to a from-scratch rebuild.
//
// BuildGraph holds the state lock shared, so queries proceed concurrently
// with a build; concurrent BuildGraph calls serialize on the builder
// mutex. A graph obtained from RelGraph before the call remains valid
// (graphs are immutable values).
func (f *Framework) BuildGraph(clause Clause) (GraphStats, error) {
	t0 := time.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()
	var st GraphStats
	if !f.indexedLocked() {
		return st, fmt.Errorf("core: BuildIndex must run before BuildGraph")
	}
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	sig := graphSignature(clause)
	if f.graphSig != sig || f.graphCands == nil {
		f.graphCands = make(map[graphPair][]relgraph.Edge)
		f.graphSig = sig
	}
	sel := selectionFromClause(clause)
	st.Datasets = len(f.order)
	classes := clause.Classes
	if classes == nil {
		classes = []feature.Class{feature.Salient, feature.Extreme}
	}

	// Enumerate the unordered pairs not yet covered and plan each one with
	// the shared query planner (pruning included); all surviving tasks run
	// as one batch so the worker pool sees the whole build at once.
	var tasks []pairTask
	missing := make(map[graphPair]bool)
	for i, a := range f.order {
		for _, b := range f.order[i+1:] {
			st.Pairs++
			key := makeGraphPair(a, b)
			if _, ok := f.graphCands[key]; ok {
				st.PairsReused++
				continue
			}
			missing[key] = true
			pl := f.plan([]string{a}, []string{b}, clause, classes)
			st.PairsConsidered += pl.considered
			st.Pruned += pl.pruned
			tasks = append(tasks, pl.tasks...)
		}
	}
	st.PairsComputed = len(missing)

	// Pure reuse: same candidates *and* same selection rule, so the
	// published graph is already the assembly of the cache — skip the
	// O(E log E) reassembly. A changed selection (correction, alpha, q
	// cutoff) falls through: the candidates are reusable but the edge set
	// is not.
	if len(missing) == 0 && sel == f.graphSel {
		if g := f.relGraph.Load(); g != nil {
			f.graphClause = clause
			st.Edges = g.NumEdges()
			st.WallDuration = time.Since(t0)
			recordGraphBuild(st)
			return st, nil
		}
	}
	f.graphSel = sel

	if len(missing) > 0 {
		mcWorkers := 1
		if n := len(tasks); n > 0 {
			if w := f.workers() / n; w > mcWorkers {
				mcWorkers = w
			}
		}
		results, err := mapreduce.ForEach(mapreduce.Config{Workers: f.opts.Workers}, tasks,
			func(t pairTask) (*Relationship, error) {
				return f.evaluatePair(t, clause, mcWorkers)
			})
		if err != nil {
			return st, err
		}
		// Record every computed pair — including empty ones, so fruitless
		// pairs are not re-evaluated on the next build. Every *tested*
		// candidate is cached with its raw p-value, significant or not:
		// the insignificant ones are part of the corpus-wide hypothesis
		// family and shift everyone's q-values.
		newCands := make(map[graphPair][]relgraph.Edge, len(missing))
		for key := range missing {
			newCands[key] = []relgraph.Edge{}
		}
		for _, r := range results {
			if r == nil {
				continue
			}
			st.Evaluated++
			key := makeGraphPair(r.Dataset1, r.Dataset2)
			newCands[key] = append(newCands[key], relationshipEdge(*r))
		}
		for key, es := range newCands {
			relgraph.SortEdges(es)
			f.graphCands[key] = es
		}
	}

	g := assembleGraph(f.graphCands, f.graphSel)
	f.relGraph.Store(g)
	f.graphClause = clause
	st.Edges = g.NumEdges()
	st.WallDuration = time.Since(t0)
	recordGraphBuild(st)
	return st, nil
}

// GraphClause returns the clause the current materialized graph's
// candidate cache was built (or loaded) under, and ok = false when no
// graph exists. An incremental refresh after a corpus change — e.g. a
// runtime ingestion — should pass exactly this clause to BuildGraph so
// the cache is reused and the selection is unchanged.
func (f *Framework) GraphClause() (Clause, bool) {
	if f.relGraph.Load() == nil {
		return Clause{}, false
	}
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	return f.graphClause, true
}

// relationshipEdge converts one query-layer relationship into a graph edge.
// For candidates entering the pair cache the QValue is still zero (q-values
// are assigned corpus-wide at assembly); for parity comparisons against
// Query results it carries the query-scoped q-value through.
func relationshipEdge(r Relationship) relgraph.Edge {
	return relgraph.Edge{
		Function1: r.Function1, Function2: r.Function2,
		Dataset1: r.Dataset1, Dataset2: r.Dataset2,
		Spec1: r.Spec1, Spec2: r.Spec2,
		SRes: r.Res.Spatial, TRes: r.Res.Temporal, Class: r.Class,
		Tau: r.Score, Rho: r.Strength, PValue: r.PValue, QValue: r.QValue,
	}
}

// RelGraph returns the materialized relationship graph, or ok = false when
// BuildGraph (or a Load of a snapshot with a graph) has not run. It never blocks — not even on an
// in-flight build — and the returned graph is an immutable value: it stays
// valid and consistent while a concurrent BuildGraph replaces the
// framework's current graph.
func (f *Framework) RelGraph() (*relgraph.Graph, bool) {
	g := f.relGraph.Load()
	return g, g != nil
}

// resetGraph drops the materialized graph and its per-pair candidate
// cache. The caller must hold the state lock exclusively (which also
// excludes any in-flight builder, since builders hold the shared lock).
func (f *Framework) resetGraph() {
	f.graphMu.Lock()
	f.graphCands = nil
	f.graphSig = ""
	f.graphSel = graphSelection{}
	f.graphClause = Clause{}
	f.graphMu.Unlock()
	f.relGraph.Store(nil)
}

// graphPairSnapshot is one data set pair's cached candidates in a graph
// snapshot.
type graphPairSnapshot struct {
	A, B  string
	Cands []relgraph.Edge
}

// graphSnapshot is the persisted form of a materialized graph: the clause
// signature, corpus fingerprint, and edge-selection rule it was built
// under plus the per-pair candidate cache, so a loaded graph supports
// incremental maintenance — q-value recomputation included — exactly like
// the original, and is never grafted onto a framework whose candidates it
// could not have come from.
type graphSnapshot struct {
	Sig          string
	Seed         int64
	MinTS, MaxTS int64

	// Selection rule (see graphSelection): how the published graph is
	// assembled from the candidates.
	Alpha      float64
	Correction stats.Correction
	MaxQ       float64
	Skip       bool

	// Clause is the originating clause of the candidate cache, so a
	// loaded graph refreshes incrementally under exactly the clause it
	// was built with (GraphClause).
	Clause Clause

	Pairs []graphPairSnapshot
}

// stagedGraph is a fully validated graph snapshot that has not been
// applied to the framework yet. The parse/apply split lets Load validate
// every snapshot section before mutating anything, so a failed load never
// leaves the framework half-restored.
type stagedGraph struct {
	cands  map[graphPair][]relgraph.Edge
	sig    string
	sel    graphSelection
	clause Clause
}

// stageGraphSnapshotLocked validates a parsed graph snapshot against this
// framework without mutating any state. The caller must hold the state
// lock (validation reads the corpus fingerprint fields).
func (f *Framework) stageGraphSnapshotLocked(snap graphSnapshot) (stagedGraph, error) {
	var staged stagedGraph
	if snap.Seed != f.opts.Seed {
		return staged, fmt.Errorf("core: graph was built with seed %d, framework has %d", snap.Seed, f.opts.Seed)
	}
	if snap.MinTS != f.minTS || snap.MaxTS != f.maxTS {
		return staged, fmt.Errorf("core: graph corpus time range [%d,%d] does not match [%d,%d]",
			snap.MinTS, snap.MaxTS, f.minTS, f.maxTS)
	}
	cands := make(map[graphPair][]relgraph.Edge, len(snap.Pairs))
	for _, p := range snap.Pairs {
		// Save writes pairs in canonical (A < B) order; anything else
		// would dodge the duplicate check and miss BuildGraph's canonical
		// cache lookups, leaving a stale entry that double-counts edges.
		if p.A >= p.B {
			return staged, fmt.Errorf("core: graph snapshot pair %q|%q is not in canonical order", p.A, p.B)
		}
		for _, ds := range [2]string{p.A, p.B} {
			if _, ok := f.datasets[ds]; !ok {
				return staged, fmt.Errorf("core: graph covers unregistered dataset %q", ds)
			}
		}
		key := graphPair{A: p.A, B: p.B}
		if _, dup := cands[key]; dup {
			return staged, fmt.Errorf("core: graph snapshot repeats pair %q|%q", p.A, p.B)
		}
		cands[key] = p.Cands
	}
	staged.cands = cands
	staged.sig = snap.Sig
	staged.sel = graphSelection{alpha: snap.Alpha, correction: snap.Correction, maxQ: snap.MaxQ, skip: snap.Skip}
	staged.clause = snap.Clause
	return staged, nil
}

// applyGraphSnapshotLocked publishes a staged graph snapshot. The caller
// must hold the state lock exclusively. It cannot fail.
func (f *Framework) applyGraphSnapshotLocked(staged stagedGraph) {
	f.graphMu.Lock()
	f.graphCands = staged.cands
	f.graphSig = staged.sig
	f.graphSel = staged.sel
	f.graphClause = staged.clause
	f.graphMu.Unlock()
	f.relGraph.Store(assembleGraph(staged.cands, staged.sel))
}
