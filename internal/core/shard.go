package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/mapreduce"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/store"
)

// This file is the sharded form of BuildGraph: the all-pairs Monte Carlo
// fan-out — the most expensive computation in the system — partitioned
// across replicas. The pair space is split by a deterministic hash of the
// unordered data set pair (PairShard), each shard computes its pairs'
// tested candidate families with the same deterministic per-pair seeds and
// randomization plans a local build would use (pairSeed derives from pair
// identity alone, the plans from the framework seed alone, never from
// enumeration order), and the leader merges the per-pair caches and
// assembles the published graph. Because every per-pair candidate list is
// independent of which process computed it, the merged graph — edges,
// p-values, corpus-wide q-values, and DOT export — is byte-identical to a
// single-process BuildGraph under the same clause (asserted by
// TestShardedBuildGraphEquivalence).
//
// A shard payload is self-describing: it carries the clause signature its
// candidates were computed under, the corpus fingerprint fields the
// significance seeds depend on, and its (shard, of) coordinates. It is a
// flat payload (internal/store's slab encoding) whose per-pair candidate
// families use the same pair codec as the snapshot graph section
// (writeFlatPairs), so a shard and a snapshot encode a pair identically.
// MergeGraphShards refuses payloads from another clause, another corpus,
// an inconsistent partition, or an incomplete one — a merged graph either
// covers exactly the current corpus's pair space or is not published.

// PairShard maps an unordered data set pair to a shard index in [0, of).
// The hash depends only on the canonically ordered names, so every process
// partitions the pair space identically.
func PairShard(a, b string, of int) int {
	if of <= 1 {
		return 0
	}
	if b < a {
		a, b = b, a
	}
	h := fnv.New64a()
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	return int(h.Sum64() % uint64(of))
}

// graphShard is one computed shard: the per-pair tested candidate
// families for every pair the shard owns.
type graphShard struct {
	Sig          string // graphSignature of the clause
	Seed         int64
	MinTS, MaxTS int64
	Shard, Of    int
	Pairs        []graphPairSnapshot
}

// encodeGraphShard lays a shard out as a flat payload; parseGraphShard is
// its inverse.
func encodeGraphShard(sh graphShard) []byte {
	w := store.NewSlabWriter(4096)
	w.Raw(flatShardMagic)
	w.U64(flatSnapshotVersion)
	w.String(sh.Sig)
	w.I64(sh.Seed)
	w.I64(sh.MinTS)
	w.I64(sh.MaxTS)
	w.I64(int64(sh.Shard))
	w.I64(int64(sh.Of))
	writeFlatPairs(w, sh.Pairs)
	return w.Finish()
}

// parseGraphShard decodes a shard payload. Shards arrive from other
// processes (POST /v1/graph/merge), so every failure wraps
// store.ErrCorrupt and no count can drive an allocation beyond the
// payload's size. The decoded strings alias a private copy of data, so
// the caller may reuse its buffer.
func parseGraphShard(data []byte) (graphShard, error) {
	var sh graphShard
	if !bytes.HasPrefix(data, flatShardMagic) {
		return sh, corruptf("graph shard is not a flat v%d shard", flatSnapshotVersion)
	}
	r := store.NewSlabReader(bytes.Clone(data))
	r.Raw(len(flatShardMagic))
	if v := r.U64(); r.Err() == nil && v != flatSnapshotVersion {
		return sh, corruptf("graph shard version %d, want %d", v, flatSnapshotVersion)
	}
	sh.Sig = r.String()
	sh.Seed = r.I64()
	sh.MinTS = r.I64()
	sh.MaxTS = r.I64()
	sh.Shard = int(r.I64())
	sh.Of = int(r.I64())
	sh.Pairs = readFlatPairs(r)
	if err := r.Done(); err != nil {
		return sh, err
	}
	return sh, nil
}

// BuildGraphShard computes the tested candidate families for the unordered
// data set pairs assigned to shard (of the given partition width) under the
// clause, and returns them as a self-describing payload for
// MergeGraphShards. Per-pair Monte Carlo seeds are derived from pair
// identity, so the candidates are byte-identical to what a local BuildGraph
// would record for the same pairs. Pairs already present in this
// framework's candidate cache under the same clause signature (e.g. on a
// replica whose graph was warm-loaded from the leader's snapshot) are
// served from the cache without re-evaluation, and freshly computed pairs
// are cached in turn.
//
// Like BuildGraph, the computation holds the state lock shared — queries
// keep flowing — and serializes on the builder mutex. The published graph
// is not touched: computing a shard is a pure producer step.
func (f *Framework) BuildGraphShard(clause Clause, shard, of int) ([]byte, error) {
	if of < 1 {
		return nil, fmt.Errorf("core: shard partition width %d, want >= 1", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("core: shard %d out of range [0,%d)", shard, of)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if !f.indexedLocked() {
		return nil, fmt.Errorf("core: BuildIndex must run before BuildGraphShard")
	}
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	sig := graphSignature(clause)
	if f.graphSig != sig || f.graphCands == nil {
		f.graphCands = make(map[graphPair][]relgraph.Edge)
		f.graphSig = sig
	}
	classes := clause.Classes
	if classes == nil {
		classes = []feature.Class{feature.Salient, feature.Extreme}
	}

	// Enumerate this shard's pairs; plan and evaluate the ones the cache
	// does not already hold.
	var owned []graphPair
	var tasks []pairTask
	missing := make(map[graphPair]bool)
	for i, a := range f.order {
		for _, b := range f.order[i+1:] {
			if PairShard(a, b, of) != shard {
				continue
			}
			key := makeGraphPair(a, b)
			owned = append(owned, key)
			if _, ok := f.graphCands[key]; ok {
				continue
			}
			missing[key] = true
			pl := f.plan([]string{a}, []string{b}, clause, classes)
			tasks = append(tasks, pl.tasks...)
		}
	}
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
			return nil, err
		}
		newCands := make(map[graphPair][]relgraph.Edge, len(missing))
		for key := range missing {
			newCands[key] = []relgraph.Edge{}
		}
		for _, r := range results {
			if r == nil {
				continue
			}
			key := makeGraphPair(r.Dataset1, r.Dataset2)
			newCands[key] = append(newCands[key], relationshipEdge(*r))
		}
		for key, es := range newCands {
			relgraph.SortEdges(es)
			f.graphCands[key] = es
		}
	}

	payload := encodeGraphShard(graphShard{
		Sig:   sig,
		Seed:  f.opts.Seed,
		MinTS: f.minTS,
		MaxTS: f.maxTS,
		Shard: shard,
		Of:    of,
		Pairs: canonicalPairs(owned, f.graphCands),
	})
	mGraphShardsComputed.Inc()
	return payload, nil
}

// MergeGraphShards merges shard payloads produced by BuildGraphShard under
// the same clause into this framework's candidate cache and publishes the
// assembled graph. The shards must form a complete, consistent partition of
// the current corpus's pair space: same clause signature, same corpus
// fingerprint, one common partition width, every shard index present
// exactly once, every pair in the shard its hash assigns it to, and no
// corpus pair missing. The published graph — q-values included, which are
// adjusted over the merged corpus-wide family — is byte-identical to a
// local BuildGraph under the same clause.
func (f *Framework) MergeGraphShards(clause Clause, shards [][]byte) (GraphStats, error) {
	t0 := time.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()
	var st GraphStats
	if !f.indexedLocked() {
		return st, fmt.Errorf("core: BuildIndex must run before MergeGraphShards")
	}
	if len(shards) == 0 {
		return st, fmt.Errorf("core: no shards to merge")
	}
	sig := graphSignature(clause)
	of := 0
	seen := make(map[int]bool)
	cands := make(map[graphPair][]relgraph.Edge)
	for i, raw := range shards {
		sh, err := parseGraphShard(raw)
		if err != nil {
			return st, fmt.Errorf("core: decoding shard %d: %w", i, err)
		}
		if sh.Sig != sig {
			return st, fmt.Errorf("core: shard %d was computed under a different clause", i)
		}
		if sh.Seed != f.opts.Seed {
			return st, fmt.Errorf("core: shard %d was computed with seed %d, framework has %d", i, sh.Seed, f.opts.Seed)
		}
		if sh.MinTS != f.minTS || sh.MaxTS != f.maxTS {
			return st, fmt.Errorf("core: shard %d corpus time range [%d,%d] does not match [%d,%d]",
				i, sh.MinTS, sh.MaxTS, f.minTS, f.maxTS)
		}
		if of == 0 {
			of = sh.Of
		}
		if sh.Of != of {
			return st, fmt.Errorf("core: shard %d has partition width %d, others have %d", i, sh.Of, of)
		}
		if sh.Shard < 0 || sh.Shard >= of {
			return st, fmt.Errorf("core: shard index %d out of range [0,%d)", sh.Shard, of)
		}
		if seen[sh.Shard] {
			return st, fmt.Errorf("core: shard index %d supplied twice", sh.Shard)
		}
		seen[sh.Shard] = true
		for _, p := range sh.Pairs {
			if p.A >= p.B {
				return st, fmt.Errorf("core: shard %d pair %q|%q is not in canonical order", sh.Shard, p.A, p.B)
			}
			if PairShard(p.A, p.B, of) != sh.Shard {
				return st, fmt.Errorf("core: pair %q|%q does not belong to shard %d", p.A, p.B, sh.Shard)
			}
			for _, ds := range [2]string{p.A, p.B} {
				if _, ok := f.datasets[ds]; !ok {
					return st, fmt.Errorf("core: shard %d covers unregistered dataset %q", sh.Shard, ds)
				}
			}
			key := graphPair{A: p.A, B: p.B}
			if _, dup := cands[key]; dup {
				return st, fmt.Errorf("core: pair %q|%q supplied twice across shards", p.A, p.B)
			}
			cands[key] = p.Cands
		}
	}
	if len(seen) != of {
		return st, fmt.Errorf("core: merge received %d of %d shards", len(seen), of)
	}
	// Completeness: every unordered pair of the current corpus must be
	// covered — a partial graph must never be published as if it were whole.
	st.Datasets = len(f.order)
	for i, a := range f.order {
		for _, b := range f.order[i+1:] {
			st.Pairs++
			if _, ok := cands[makeGraphPair(a, b)]; !ok {
				return st, fmt.Errorf("core: merged shards do not cover pair %q|%q", a, b)
			}
		}
	}
	if len(cands) != st.Pairs {
		return st, fmt.Errorf("core: merged shards cover %d pairs, corpus has %d", len(cands), st.Pairs)
	}

	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	f.graphCands = cands
	f.graphSig = sig
	f.graphSel = selectionFromClause(clause)
	g := assembleGraph(f.graphCands, f.graphSel)
	f.relGraph.Store(g)
	f.graphClause = clause
	st.PairsComputed = st.Pairs
	st.Edges = g.NumEdges()
	st.WallDuration = time.Since(t0)
	recordGraphBuild(st)
	mGraphShardMerges.Inc()
	return st, nil
}
