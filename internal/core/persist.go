package core

// This file holds the snapshot section codecs. A built index and a
// materialized graph are persisted as flat payloads (internal/store's slab
// encoding): length-prefixed little-endian words with 8-byte alignment,
// so a memory-mapped snapshot is *viewed* instead of decoded — feature
// bit vectors alias the mapping (bitvec.ViewBytes), strings alias the
// mapping (store.SlabReader.String), and replicas on one host share the
// page cache. The framework stores precomputed features rather than raw
// functions (Section 5.2 / Appendix C), so an index for a large corpus is
// small: bit vectors plus thresholds.
//
// Parsing is split from installation: parseFlatIndex, parseFlatGraph and
// parseGraphShard are pure functions over a byte slice (fuzzed in
// persist_flat_test.go and shard_test.go) whose failures all wrap
// store.ErrCorrupt; the framework-aware install step then validates the
// parsed state against the registered corpus.

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/stats"
	"github.com/urbandata/datapolygamy/internal/store"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// flatSnapshotVersion is the snapshot generation every flat payload
// carries: the container's format version, so one number names a snapshot
// across layers. Generation 5 added the per-entry tile table (NumSteps,
// per-tile thresholds and critical points) that appending to a
// warm-opened corpus needs, and the query window fields of the persisted
// clause; the container manifest moved to the slab codec in the same
// generation.
const flatSnapshotVersion = store.FormatVersion

// Payload magics. The final byte is the generation, so a payload of
// another generation is rejected up front rather than misparsed.
var (
	flatIndexMagic = append([]byte("DPIXFLT"), flatSnapshotVersion)
	flatGraphMagic = append([]byte("DPGRFLT"), flatSnapshotVersion)
	flatShardMagic = append([]byte("DPSHFLT"), flatSnapshotVersion)
)

// nilSlice is the length sentinel distinguishing a nil clause slice
// (meaning "all") from an empty one.
const nilSlice = ^uint64(0)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("core: "+format+": %w", append(args, store.ErrCorrupt)...)
}

// ---- index section ----

// collectEntriesLocked returns every index entry in the canonical snapshot
// order (data set, then key). The caller must hold the state lock.
func (f *Framework) collectEntriesLocked() []*FunctionEntry {
	var out []*FunctionEntry
	for _, name := range f.order {
		for _, es := range f.index.entries[name] {
			out = append(out, es...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// encodeFlatIndexLocked serialises the built index as a flat section.
// The caller must hold the state lock (shared or exclusive).
func (f *Framework) encodeFlatIndexLocked() ([]byte, error) {
	if !f.indexedLocked() {
		return nil, fmt.Errorf("core: Save requires a built index")
	}
	entries := f.collectEntriesLocked()
	est := 256
	for _, e := range entries {
		est += 256 + len(e.Key) + len(e.Dataset) + len(e.SpecName) +
			6*(8+e.Salient.Positive.WordBytes())
	}
	w := store.NewSlabWriter(est)
	w.Raw(flatIndexMagic)
	w.U64(flatSnapshotVersion)
	w.I64(f.minTS)
	w.I64(f.maxTS)
	w.U64(uint64(len(f.order)))
	for _, name := range f.order {
		w.String(name)
	}
	w.U64(uint64(len(entries)))
	for _, e := range entries {
		w.String(e.Key)
		w.String(e.Dataset)
		w.String(e.SpecName)
		w.I64(int64(e.Res.Spatial))
		w.I64(int64(e.Res.Temporal))
		writeFlatThresholds(w, e.Thresholds)
		w.I64(int64(e.NumVertices))
		w.I64(int64(e.NumEdges))
		w.I64(int64(e.CriticalPoints))
		// Tile table: domain length plus per-tile thresholds and
		// critical point counts, so appends can reuse untouched tiles after
		// a warm open.
		if len(e.TileThresholds) != len(e.TileCriticalPoints) {
			return nil, fmt.Errorf("core: entry %s has %d tile thresholds, %d tile critical point counts",
				e.Key, len(e.TileThresholds), len(e.TileCriticalPoints))
		}
		w.I64(int64(e.NumSteps))
		w.U64(uint64(len(e.TileThresholds)))
		for ti, th := range e.TileThresholds {
			writeFlatThresholds(w, th)
			w.I64(int64(e.TileCriticalPoints[ti]))
		}
		// The derived unions are persisted too: reloading them as views
		// keeps the whole feature working set inside the shared mapping
		// (occupancy summaries are recomputed by popcount at load).
		for _, v := range []*bitvec.Vector{
			e.Salient.Positive, e.Salient.Negative,
			e.Extreme.Positive, e.Extreme.Negative,
			e.union(feature.Salient), e.union(feature.Extreme),
		} {
			writeFlatVector(w, v)
		}
	}
	return w.Finish(), nil
}

func writeFlatVector(w *store.SlabWriter, v *bitvec.Vector) {
	w.U64(uint64(v.Len()))
	w.AppendFunc(v.AppendWords)
}

// readFlatVector builds a zero-copy view of one bit-vector slab into the
// caller-allocated dst (batched by parseFlatIndex).
func readFlatVector(r *store.SlabReader, dst *bitvec.Vector) error {
	n := r.Int()
	b := r.Raw(8 * bitvec.NumWords(n))
	if err := r.Err(); err != nil {
		return err
	}
	if err := bitvec.ViewBytes(dst, n, b); err != nil {
		return corruptf("%v", err)
	}
	return nil
}

func writeFlatThresholds(w *store.SlabWriter, t feature.Thresholds) {
	w.F64(t.ExtremePos)
	w.F64(t.ExtremeNeg)
	for _, s := range []feature.SeasonThresholds{t.PosBySeason, t.NegBySeason} {
		w.U64(uint64(len(s)))
		for _, st := range s {
			w.I64(int64(st.Season))
			w.F64(st.Theta)
		}
	}
}

// readFlatThresholds appends both season lists to the shared arena and
// hands back capped subslices, so one backing array serves every entry in
// the section instead of two allocations per entry.
func readFlatThresholds(r *store.SlabReader, arena *[]feature.SeasonTheta) feature.Thresholds {
	t := feature.Thresholds{ExtremePos: r.F64(), ExtremeNeg: r.F64()}
	for _, dst := range []*feature.SeasonThresholds{&t.PosBySeason, &t.NegBySeason} {
		n := r.Count(16)
		start := len(*arena)
		for i := 0; i < n && r.Err() == nil; i++ {
			season := int(r.I64())
			*arena = append(*arena, feature.SeasonTheta{Season: season, Theta: r.F64()})
		}
		*dst = feature.SeasonThresholds((*arena)[start:len(*arena):len(*arena)])
	}
	return t
}

// flatIndexSnap is a parsed flat index section: the snapshot's identity
// plus fully built entries whose bit vectors view the payload in place.
type flatIndexSnap struct {
	minTS, maxTS int64
	order        []string
	entries      []*FunctionEntry
}

// parseFlatIndex decodes a flat index payload with no framework access and
// no heap copies of the bit-vector slabs. Every failure — truncation, bad
// counts, tail bits beyond a vector's length, mismatched vector lengths —
// wraps store.ErrCorrupt.
func parseFlatIndex(data []byte) (flatIndexSnap, error) {
	var snap flatIndexSnap
	if !bytes.HasPrefix(data, flatIndexMagic) {
		return snap, corruptf("index section is not a flat v%d index", flatSnapshotVersion)
	}
	r := store.NewSlabReader(data)
	r.Raw(len(flatIndexMagic))
	if v := r.U64(); r.Err() == nil && v != flatSnapshotVersion {
		return snap, corruptf("flat index version %d, want %d", v, flatSnapshotVersion)
	}
	snap.minTS = r.I64()
	snap.maxTS = r.I64()
	nOrder := r.Count(8)
	snap.order = make([]string, 0, nOrder)
	for i := 0; i < nOrder && r.Err() == nil; i++ {
		snap.order = append(snap.order, r.String())
	}
	nEntries := r.Count(64)
	// Entry, vector, and feature-set headers are batched into three slabs
	// — warm open allocates O(1) headers instead of O(entries). The counts
	// are bounded by Count, and the loop never outgrows the slabs, so the
	// pointers taken below stay valid.
	entryBuf := make([]FunctionEntry, nEntries)
	vecBuf := make([]bitvec.Vector, 6*nEntries)
	setBuf := make([]feature.Set, 2*nEntries)
	// Season thresholds share one arena: most entries carry a couple of
	// seasons per sign, so this usually grows a handful of times in total.
	seasonArena := make([]feature.SeasonTheta, 0, 2*nEntries)
	snap.entries = make([]*FunctionEntry, 0, nEntries)
	for i := 0; i < nEntries && r.Err() == nil; i++ {
		e := &entryBuf[i]
		e.Key = r.String()
		e.Dataset = r.String()
		e.SpecName = r.String()
		e.Res = Resolution{
			Spatial:  spatial.Resolution(r.I64()),
			Temporal: temporal.Resolution(r.I64()),
		}
		e.Thresholds = readFlatThresholds(r, &seasonArena)
		e.NumVertices = int(r.I64())
		e.NumEdges = int(r.I64())
		e.CriticalPoints = int(r.I64())
		e.NumSteps = int(r.I64())
		nTiles := r.Count(24)
		e.TileThresholds = make([]feature.Thresholds, 0, nTiles)
		e.TileCriticalPoints = make([]int, 0, nTiles)
		for t := 0; t < nTiles && r.Err() == nil; t++ {
			e.TileThresholds = append(e.TileThresholds, readFlatThresholds(r, &seasonArena))
			e.TileCriticalPoints = append(e.TileCriticalPoints, int(r.I64()))
		}
		vs := vecBuf[6*i : 6*i+6]
		for j := range vs {
			if err := readFlatVector(r, &vs[j]); err != nil {
				return snap, err
			}
			if j > 0 && vs[j].Len() != vs[0].Len() {
				return snap, corruptf("entry %s: vector %d has %d bits, want %d", e.Key, j, vs[j].Len(), vs[0].Len())
			}
		}
		e.Salient = &setBuf[2*i]
		e.Extreme = &setBuf[2*i+1]
		*e.Salient = feature.Set{Positive: &vs[0], Negative: &vs[1]}
		*e.Extreme = feature.Set{Positive: &vs[2], Negative: &vs[3]}
		e.finalizeWithUnions(&vs[4], &vs[5])
		snap.entries = append(snap.entries, e)
	}
	if err := r.Done(); err != nil {
		return snap, err
	}
	return snap, nil
}

// decodeFlatIndexLocked parses a flat index payload and installs it. The
// caller must hold the state lock exclusively and keep the payload's
// backing storage alive for the life of the index (Load adopts the
// snapshot mapping for that).
func (f *Framework) decodeFlatIndexLocked(data []byte) error {
	snap, err := parseFlatIndex(data)
	if err != nil {
		return err
	}
	return f.installIndexLocked(snap.minTS, snap.maxTS, snap.order, snap.entries)
}

// installIndexLocked validates a decoded index against the registered
// corpus and installs it, dropping the derived graph and query cache. The
// caller must hold the state lock exclusively.
func (f *Framework) installIndexLocked(minTS, maxTS int64, order []string, entries []*FunctionEntry) error {
	if len(order) != len(f.order) {
		return fmt.Errorf("core: index has %d data sets, framework has %d", len(order), len(f.order))
	}
	for i, name := range order {
		if f.order[i] != name {
			return fmt.Errorf("core: index data set %d is %q, framework has %q", i, name, f.order[i])
		}
	}
	if minTS != f.minTS || maxTS != f.maxTS {
		return fmt.Errorf("core: index time range [%d,%d] does not match corpus [%d,%d]",
			minTS, maxTS, f.minTS, f.maxTS)
	}
	ix := newIndex()
	for _, e := range entries {
		g, err := f.graph(e.Res)
		if err != nil {
			return err
		}
		if e.Salient.NumVertices() != g.NumVertices() {
			return fmt.Errorf("core: entry %s has %d vertices, graph has %d",
				e.Key, e.Salient.NumVertices(), g.NumVertices())
		}
		ix.add(e)
	}
	for _, name := range order {
		ix.sort(name)
		ix.markDone(name)
	}
	f.index = ix
	f.built = true
	// The index was replaced wholesale; the materialized relationship graph
	// derives from it, so drop it too (Load publishes a saved graph after).
	f.resetGraph()
	f.cacheMu.Lock()
	f.cache = make(map[string]*cachedResult)
	f.cacheMu.Unlock()
	return nil
}

// ---- graph section ----

// encodeFlatGraphLocked serialises the materialized graph (candidate
// cache, clause signature, selection rule, originating clause) as a flat
// section, also returning the clause signature captured in the same
// critical section as the payload — a caller must not re-read f.graphSig
// afterwards, or a concurrent BuildGraph could make the two disagree. The
// caller must hold the state lock (shared or exclusive); the builder
// mutex is taken here.
func (f *Framework) encodeFlatGraphLocked() ([]byte, string, error) {
	f.graphMu.Lock()
	defer f.graphMu.Unlock()
	if f.relGraph.Load() == nil {
		return nil, "", fmt.Errorf("core: Save requires a built graph (run BuildGraph)")
	}
	keys := make([]graphPair, 0, len(f.graphCands))
	for key := range f.graphCands {
		keys = append(keys, key)
	}
	return encodeFlatGraph(graphSnapshot{
		Sig:        f.graphSig,
		Seed:       f.opts.Seed,
		MinTS:      f.minTS,
		MaxTS:      f.maxTS,
		Alpha:      f.graphSel.alpha,
		Correction: f.graphSel.correction,
		MaxQ:       f.graphSel.maxQ,
		Skip:       f.graphSel.skip,
		Clause:     f.graphClause,
		Pairs:      canonicalPairs(keys, f.graphCands),
	}), f.graphSig, nil
}

// encodeFlatGraph lays a graph snapshot out as a flat section payload;
// parseFlatGraph is its inverse.
func encodeFlatGraph(snap graphSnapshot) []byte {
	w := store.NewSlabWriter(4096)
	w.Raw(flatGraphMagic)
	w.U64(flatSnapshotVersion)
	w.String(snap.Sig)
	w.I64(snap.Seed)
	w.I64(snap.MinTS)
	w.I64(snap.MaxTS)
	w.F64(snap.Alpha)
	w.I64(int64(snap.Correction))
	w.F64(snap.MaxQ)
	w.U64(b2u(snap.Skip))
	writeFlatClause(w, snap.Clause)
	writeFlatPairs(w, snap.Pairs)
	return w.Finish()
}

// canonicalPairs lists the candidate families of keys in canonical pair
// order (by A, then B) — the order Save and BuildGraphShard persist, and
// the one stageGraphSnapshotLocked and MergeGraphShards expect. keys is
// sorted in place.
func canonicalPairs(keys []graphPair, cands map[graphPair][]relgraph.Edge) []graphPairSnapshot {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	pairs := make([]graphPairSnapshot, len(keys))
	for i, key := range keys {
		pairs[i] = graphPairSnapshot{A: key.A, B: key.B, Cands: cands[key]}
	}
	return pairs
}

// writeFlatPairs writes per-pair candidate families — the pair codec
// shared by the snapshot graph section and the graph-shard wire format.
func writeFlatPairs(w *store.SlabWriter, pairs []graphPairSnapshot) {
	w.U64(uint64(len(pairs)))
	for _, p := range pairs {
		w.String(p.A)
		w.String(p.B)
		w.U64(uint64(len(p.Cands)))
		for _, e := range p.Cands {
			relgraph.AppendFlatEdge(w, e)
		}
	}
}

// readFlatPairs reads a writeFlatPairs run. Counts are bounded by the
// payload size; corruption surfaces through r's sticky error.
func readFlatPairs(r *store.SlabReader) []graphPairSnapshot {
	nPairs := r.Count(24)
	pairs := make([]graphPairSnapshot, 0, nPairs)
	for i := 0; i < nPairs && r.Err() == nil; i++ {
		p := graphPairSnapshot{A: r.String(), B: r.String()}
		nEdges := r.Count(relgraph.FlatEdgeMinBytes)
		p.Cands = make([]relgraph.Edge, 0, nEdges)
		for j := 0; j < nEdges && r.Err() == nil; j++ {
			p.Cands = append(p.Cands, relgraph.ReadFlatEdge(r))
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// parseFlatGraph decodes a flat graph payload with no framework access.
func parseFlatGraph(data []byte) (graphSnapshot, error) {
	var snap graphSnapshot
	if !bytes.HasPrefix(data, flatGraphMagic) {
		return snap, corruptf("graph section is not a flat v%d graph", flatSnapshotVersion)
	}
	r := store.NewSlabReader(data)
	r.Raw(len(flatGraphMagic))
	if v := r.U64(); r.Err() == nil && v != flatSnapshotVersion {
		return snap, corruptf("flat graph version %d, want %d", v, flatSnapshotVersion)
	}
	snap.Sig = r.String()
	snap.Seed = r.I64()
	snap.MinTS = r.I64()
	snap.MaxTS = r.I64()
	snap.Alpha = r.F64()
	snap.Correction = stats.Correction(r.I64())
	snap.MaxQ = r.F64()
	snap.Skip = r.U64() != 0
	snap.Clause = readFlatClause(r)
	snap.Pairs = readFlatPairs(r)
	if err := r.Done(); err != nil {
		return snap, err
	}
	return snap, nil
}

// parseFlatGraphLocked decodes and validates a flat graph payload against
// this framework without mutating any state. The caller must hold the
// state lock.
func (f *Framework) parseFlatGraphLocked(data []byte) (stagedGraph, error) {
	snap, err := parseFlatGraph(data)
	if err != nil {
		return stagedGraph{}, err
	}
	return f.stageGraphSnapshotLocked(snap)
}

// ---- clause codec ----

// writeFlatClause lays out every Clause field explicitly; evolving the
// clause requires a flat generation bump (the format has no field tags).
func writeFlatClause(w *store.SlabWriter, c Clause) {
	w.F64(c.MinScore)
	w.F64(c.MinStrength)
	if c.Classes == nil {
		w.U64(nilSlice)
	} else {
		w.U64(uint64(len(c.Classes)))
		for _, cl := range c.Classes {
			w.I64(int64(cl))
		}
	}
	if c.Resolutions == nil {
		w.U64(nilSlice)
	} else {
		w.U64(uint64(len(c.Resolutions)))
		for _, res := range c.Resolutions {
			w.I64(int64(res.Spatial))
			w.I64(int64(res.Temporal))
		}
	}
	w.F64(c.Alpha)
	w.I64(int64(c.Permutations))
	w.U64(b2u(c.SkipSignificance))
	w.I64(int64(c.TestKind))
	w.I64(int64(c.Correction))
	w.F64(c.MaxQ)
	w.U64(b2u(c.Exhaustive))
	w.U64(b2u(c.DisablePruning))
	w.U64(b2u(c.Windowed))
	w.I64(c.WindowFrom)
	w.I64(c.WindowTo)
}

func readFlatClause(r *store.SlabReader) Clause {
	var c Clause
	c.MinScore = r.F64()
	c.MinStrength = r.F64()
	if n := r.U64(); n != nilSlice {
		nn := boundCount(r, n, 8)
		c.Classes = make([]feature.Class, 0, nn)
		for i := 0; i < nn && r.Err() == nil; i++ {
			c.Classes = append(c.Classes, feature.Class(r.I64()))
		}
	}
	if n := r.U64(); n != nilSlice {
		nn := boundCount(r, n, 16)
		c.Resolutions = make([]Resolution, 0, nn)
		for i := 0; i < nn && r.Err() == nil; i++ {
			c.Resolutions = append(c.Resolutions, Resolution{
				Spatial:  spatial.Resolution(r.I64()),
				Temporal: temporal.Resolution(r.I64()),
			})
		}
	}
	c.Alpha = r.F64()
	c.Permutations = int(r.I64())
	c.SkipSignificance = r.U64() != 0
	c.TestKind = montecarlo.Kind(r.I64())
	c.Correction = stats.Correction(r.I64())
	c.MaxQ = r.F64()
	c.Exhaustive = r.U64() != 0
	c.DisablePruning = r.U64() != 0
	c.Windowed = r.U64() != 0
	c.WindowFrom = r.I64()
	c.WindowTo = r.I64()
	return c
}

// boundCount applies SlabReader.Count's allocation bound to a count that
// was read with a nil sentinel in band.
func boundCount(r *store.SlabReader, n uint64, minBytes int) int {
	if max := uint64(r.Remaining() / minBytes); n > max {
		// Poison the reader through a guaranteed-failing read.
		r.Raw(r.Remaining() + 8)
		return 0
	}
	return int(n)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
