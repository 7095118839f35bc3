package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// useReferenceKernel routes every significance test of the query path
// through the scalar reference (montecarlo.ReferenceTest) until the test
// ends, comparing each call against the vector kernel on the same inputs.
// It returns the number of calls and of per-call mismatches. Tests that
// use it must not run in parallel: mcTest is package state.
func useReferenceKernel(t *testing.T) (calls, mismatches *atomic.Int64) {
	t.Helper()
	calls, mismatches = new(atomic.Int64), new(atomic.Int64)
	prev := mcTest
	t.Cleanup(func() { mcTest = prev })
	mcTest = func(a, b *feature.Set, g *stgraph.Graph, tau float64, cfg montecarlo.Config) montecarlo.Result {
		ref := montecarlo.ReferenceTest(a, b, g, tau, cfg)
		if montecarlo.Test(a, b, g, tau, cfg) != ref {
			mismatches.Add(1)
		}
		calls.Add(1)
		return ref
	}
	return calls, mismatches
}

// TestQueryKernelParity: a query evaluated under the scalar reference
// kernel returns byte-identical relationships (p-values included) to the
// vector kernel, end to end through the planner, windowed compaction, and
// significance layers. Runs on two independently built frameworks so the
// reference run cannot be answered from the vector run's cache.
func TestQueryKernelParity(t *testing.T) {
	clauses := []Clause{
		{Permutations: 100},
		{Permutations: 100, TestKind: montecarlo.Standard},
		{Permutations: 100, TestKind: montecarlo.Block},
		{Permutations: 100, Exhaustive: true},
	}
	fv := buildFW(t, appendCorpus(t, 0))
	fs := buildFW(t, appendCorpus(t, 0))
	// A windowed clause exercises the supporting-tile compaction path.
	win := Clause{Permutations: 100}
	win.Windowed, win.WindowFrom, win.WindowTo = true, fv.minTS, fv.minTS+120*24*3600
	clauses = append(clauses, win)

	vec := make([][]Relationship, len(clauses))
	for i, c := range clauses {
		var err error
		if vec[i], _, err = fv.Query(Query{Clause: c}); err != nil {
			t.Fatal(err)
		}
	}
	calls, mismatches := useReferenceKernel(t)
	for i, c := range clauses {
		sca, _, err := fs.Query(Query{Clause: c})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vec[i], sca) {
			t.Fatalf("clause %+v: vector kernel results differ from scalar:\n vector %v\n scalar %v", c, vec[i], sca)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("no significance test ran through the reference kernel")
	}
	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d of %d significance tests differ between the kernels", n, calls.Load())
	}
}
