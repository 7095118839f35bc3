package core

import (
	"path/filepath"
	"testing"

	"github.com/urbandata/datapolygamy/internal/relgraph"
	"github.com/urbandata/datapolygamy/internal/store"
)

// graphClause is the cheap test clause shared by the graph tests.
func graphClause() Clause { return Clause{Permutations: 30} }

// TestGraphQueryParity asserts the ISSUE's parity criterion: for every
// data set pair, the edges in the materialized graph are byte-identical
// (tau, rho, p-value) to a direct Query for that pair under the same
// clause and framework seed.
func TestGraphQueryParity(t *testing.T) {
	f := stressFW(t)
	clause := graphClause()
	st, err := f.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != 6 || st.PairsComputed != 6 || st.PairsReused != 0 {
		t.Fatalf("build stats = %+v", st)
	}
	g, ok := f.RelGraph()
	if !ok {
		t.Fatal("RelGraph not available after BuildGraph")
	}
	if g.NumEdges() == 0 {
		t.Fatal("graph has no edges; fixtures should relate")
	}
	if st.Edges != g.NumEdges() {
		t.Errorf("stats.Edges = %d, graph has %d", st.Edges, g.NumEdges())
	}

	names := f.Datasets()
	total := 0
	for i, a := range names {
		for _, b := range names[i+1:] {
			rels, _, err := f.Query(Query{Sources: []string{a}, Targets: []string{b}, Clause: clause})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]relgraph.Edge, len(rels))
			for j, r := range rels {
				want[j] = relationshipEdge(r)
			}
			var got []relgraph.Edge
			for _, e := range g.DatasetEdges(a) {
				if e.Dataset1 == b || e.Dataset2 == b {
					got = append(got, e)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("pair %s|%s: graph has %d edges, query returned %d", a, b, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("pair %s|%s edge %d: graph %+v != query %+v", a, b, j, got[j], want[j])
				}
			}
			total += len(want)
		}
	}
	if total != g.NumEdges() {
		t.Errorf("pairwise queries found %d edges, graph has %d", total, g.NumEdges())
	}
}

// TestGraphIncrementalEquivalence asserts that incremental maintenance —
// AddDataset, BuildIndex, BuildGraph — produces exactly the graph a
// from-scratch rebuild over the full corpus would.
func TestGraphIncrementalEquivalence(t *testing.T) {
	clause := graphClause()

	// Incremental: three data sets, graph, then a fourth.
	f := newFW(t)
	wind, trips := plantedPair(10, randomHours(17, 40), nil)
	gusts, rides := plantedPair(11, randomHours(19, 40), randomHours(21, 20))
	gusts.Name, rides.Name = "gusts", "rides"
	for _, err := range []error{f.AddDataset(wind), f.AddDataset(trips), f.AddDataset(gusts)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDataset(rides); err != nil {
		t.Fatal(err)
	}
	ist, err := f.BuildIndex()
	if err != nil {
		t.Fatal(err)
	}
	if ist.DatasetsIndexed != 1 {
		t.Fatalf("expected incremental index of 1 data set, got %+v (fixture extends the time range?)", ist)
	}
	gst, err := f.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if gst.PairsReused != 3 || gst.PairsComputed != 3 {
		t.Errorf("incremental build stats = %+v, want 3 reused + 3 computed", gst)
	}
	inc, _ := f.RelGraph()

	// From scratch: all four data sets at once.
	f2 := stressFW(t)
	if _, err := f2.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	full, _ := f2.RelGraph()
	if !inc.Equal(full) {
		t.Error("incrementally maintained graph differs from a from-scratch rebuild")
	}
}

// saveTemp saves f to a fresh snapshot file and returns its path.
func saveTemp(t *testing.T, f *Framework) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGraphSaveLoadRoundTrip asserts that a snapshot Save/Load round-trip
// preserves the graph exactly and keeps the pair cache warm, and that
// Load refuses a graph section its framework could not have built: an
// unregistered data set, another Monte Carlo seed, or pairs out of
// canonical order.
func TestGraphSaveLoadRoundTrip(t *testing.T) {
	f := stressFW(t)
	clause := graphClause()
	if _, err := f.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	g, _ := f.RelGraph()
	path := saveTemp(t, f)

	f2 := stressFW(t)
	if err := f2.Load(path); err != nil {
		t.Fatal(err)
	}
	g2, ok := f2.RelGraph()
	if !ok {
		t.Fatal("RelGraph not available after Load")
	}
	if !g2.Equal(g) {
		t.Error("Save/Load round-trip changed the graph")
	}
	// The loaded pair cache must make the next build a pure reuse.
	st, err := f2.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 0 || st.PairsReused != 6 {
		t.Errorf("post-load build stats = %+v, want 6 reused", st)
	}
	g3, _ := f2.RelGraph()
	if !g3.Equal(g) {
		t.Error("post-load rebuild changed the graph")
	}

	// The remaining cases damage only the graph section, so the manifest
	// fingerprint still matches and the graph-level checks must catch it.
	_, sections, err := store.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := parseFlatGraph(sections[store.SectionGraph])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(s *graphSnapshot)
	}{
		// A pair naming a data set the framework does not have.
		{"unregistered data set", func(s *graphSnapshot) { s.Pairs[0].A = "aardvark" }},
		// Another seed: this framework's own BuildGraph could never have
		// produced these edges, so reusing them would break parity with Query.
		{"seed mismatch", func(s *graphSnapshot) { s.Seed++ }},
		// Pairs out of canonical order would dodge the duplicate check and
		// miss BuildGraph's canonical cache lookups.
		{"non-canonical pair order", func(s *graphSnapshot) { s.Pairs[0].A, s.Pairs[0].B = s.Pairs[0].B, s.Pairs[0].A }},
		{"repeated pair", func(s *graphSnapshot) { s.Pairs[1] = s.Pairs[0] }},
	}
	for _, tc := range cases {
		bad := snap
		bad.Pairs = append([]graphPairSnapshot(nil), snap.Pairs...)
		tc.mutate(&bad)
		f3 := stressFW(t)
		if err := f3.Load(rewriteSection(t, path, store.SectionGraph, encodeFlatGraph(bad))); err == nil {
			t.Errorf("%s: Load accepted the graph section", tc.name)
		}
		if _, ok := f3.RelGraph(); ok {
			t.Errorf("%s: failed Load published a graph", tc.name)
		}
	}
}

func TestBuildGraphRequiresIndex(t *testing.T) {
	f := newFW(t)
	if _, err := f.BuildGraph(graphClause()); err == nil {
		t.Error("expected BuildGraph error before BuildIndex")
	}
	if _, ok := f.RelGraph(); ok {
		t.Error("RelGraph should not be available before BuildGraph")
	}
}

// TestGraphClauseChangeRebuilds asserts the pair cache is keyed by the
// clause: a different clause forces a full recompute, and repeating a
// clause is a pure reuse.
func TestGraphClauseChangeRebuilds(t *testing.T) {
	f := stressFW(t)
	if _, err := f.BuildGraph(graphClause()); err != nil {
		t.Fatal(err)
	}
	st, err := f.BuildGraph(Clause{Permutations: 30, MinScore: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 6 || st.PairsReused != 0 {
		t.Errorf("clause change build stats = %+v, want full recompute", st)
	}
	st, err = f.BuildGraph(Clause{Permutations: 30, MinScore: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 0 || st.PairsReused != 6 {
		t.Errorf("repeat build stats = %+v, want pure reuse", st)
	}
}

// TestGraphResetOnTimeRangeExtension asserts that a data set extending the
// corpus time range — which forces a full index rebuild — also drops the
// materialized graph, mirroring the index contract.
func TestGraphResetOnTimeRangeExtension(t *testing.T) {
	f := newFW(t)
	wind, trips := plantedPair(10, randomHours(17, 40), nil)
	for _, err := range []error{f.AddDataset(wind), f.AddDataset(trips)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(graphClause()); err != nil {
		t.Fatal(err)
	}
	late, _ := plantedPair(12, randomHours(23, 40), nil)
	late.Name = "late"
	for i := range late.Tuples {
		late.Tuples[i].TS += 365 * 24 * 3600 // extend the corpus range
	}
	if err := f.AddDataset(late); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.RelGraph(); ok {
		t.Error("graph should be dropped when the corpus time range extends")
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	st, err := f.BuildGraph(graphClause())
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsComputed != 3 || st.PairsReused != 0 {
		t.Errorf("post-reset build stats = %+v, want full recompute of 3 pairs", st)
	}
}
