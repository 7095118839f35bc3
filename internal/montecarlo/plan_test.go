package montecarlo

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/urbandata/datapolygamy/internal/bitvec"
	"github.com/urbandata/datapolygamy/internal/feature"
	"github.com/urbandata/datapolygamy/internal/stgraph"
)

// chunkContents copies chunk ci's words and shifts out of a plan.
func chunkContents(p *Plan, ci int) ([]uint64, []int32) {
	c := p.chunk(ci)
	return slices.Clone(c.words[:]), slices.Clone(c.shifts)
}

// TestPlanChunksArePure: a chunk's contents depend on (adjacency, seed,
// chunk index) alone — not on which chunks were drawn before it, in what
// order, or by how many goroutines at once.
func TestPlanChunksArePure(t *testing.T) {
	adj := grid(5, 4)
	const nChunks = 12
	seq := NewPlan(adj, 9)
	var wantW [nChunks][]uint64
	var wantS [nChunks][]int32
	for ci := 0; ci < nChunks; ci++ {
		wantW[ci], wantS[ci] = chunkContents(seq, ci)
	}
	check := func(name string, p *Plan) {
		t.Helper()
		for ci := 0; ci < nChunks; ci++ {
			w, s := chunkContents(p, ci)
			if !slices.Equal(w, wantW[ci]) || !slices.Equal(s, wantS[ci]) {
				t.Fatalf("%s: chunk %d differs from the sequentially drawn plan", name, ci)
			}
		}
	}

	rev := NewPlan(adj, 9)
	for ci := nChunks - 1; ci >= 0; ci-- {
		rev.chunk(ci)
	}
	check("reverse order", rev)

	conc := NewPlan(adj, 9)
	before := mPlanChunks.Value()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < nChunks; i++ {
				conc.chunk((i*5 + g) % nChunks)
			}
		}(g)
	}
	wg.Wait()
	check("concurrent", conc)
	if got := mPlanChunks.Value() - before; got != nChunks {
		t.Errorf("concurrent draws materialized %d chunks, want %d (each exactly once)", got, nChunks)
	}

	other := NewPlan(adj, 10)
	if w, _ := chunkContents(other, 0); slices.Equal(w, wantW[0]) {
		t.Error("seeds 9 and 10 drew the same rotation words")
	}
	if slices.Equal(wantW[0], wantW[1]) {
		t.Error("chunks 0 and 1 drew the same rotation words")
	}
}

// TestPlanShiftsAreBijections: every stored shift maps [0, R) onto itself,
// and a single-region plan stores none.
func TestPlanShiftsAreBijections(t *testing.T) {
	for _, tc := range []struct {
		name string
		adj  [][]int
	}{
		{"grid6x6", grid(6, 6)},
		{"ring7", ring(7)},
		{"grid1x2", grid(1, 2)},
		{"islands", [][]int{{1}, {0}, nil, {4}, {3}}},
	} {
		p := NewPlan(tc.adj, 4)
		R := len(tc.adj)
		for ci := 0; ci < 3; ci++ {
			c := p.chunk(ci)
			if len(c.shifts) != permChunk*R {
				t.Fatalf("%s: chunk %d stores %d images, want %d", tc.name, ci, len(c.shifts), permChunk*R)
			}
			for k := 0; k < permChunk; k++ {
				perm := make([]int, R)
				for r, v := range c.shift(k, R) {
					perm[r] = int(v)
				}
				if !isBijection(perm) {
					t.Fatalf("%s: chunk %d shift %d is not a bijection: %v", tc.name, ci, k, perm)
				}
			}
		}
	}
	single := NewPlan([][]int{nil}, 4).chunk(0)
	if single.shifts != nil || single.shift(0, 1) != nil {
		t.Error("a single-region plan must store no shifts")
	}
}

// TestPlanRotationRange: each test reduces the shared rotation words to
// its own step count, always landing in [1, S-1]; a single step cannot
// rotate.
func TestPlanRotationRange(t *testing.T) {
	c := NewPlan(grid(3, 3), 2).chunk(0)
	for _, S := range []int{2, 3, 7, 64, 65, 1000, 8784} {
		hit := map[int]bool{}
		for k := 0; k < permChunk; k++ {
			rot := c.rotation(k, S)
			if rot < 1 || rot > S-1 {
				t.Fatalf("S=%d k=%d: rotation %d outside [1, %d]", S, k, rot, S-1)
			}
			hit[rot] = true
		}
		if S > 100 && len(hit) < permChunk/2 {
			t.Errorf("S=%d: only %d distinct rotations over %d words", S, len(hit), permChunk)
		}
	}
	if rot := c.rotation(0, 1); rot != 0 {
		t.Errorf("single-step rotation = %d, want 0", rot)
	}
	// The extreme words map to the ends of the range.
	var edge planChunk
	edge.words[0], edge.words[1] = 0, math.MaxUint64
	for _, S := range []int{2, 5, 1 << 20} {
		if lo, hi := edge.rotation(0, S), edge.rotation(1, S); lo != 1 || hi != S-1 {
			t.Errorf("S=%d: extreme words rotate by %d and %d, want 1 and %d", S, lo, hi, S-1)
		}
	}
}

// TestPlanEarlyStopMaterializesConsumed: a test that stops early draws only
// the plan chunks it evaluated, and a second test on the same plan reuses
// them without drawing again.
func TestPlanEarlyStopMaterializesConsumed(t *testing.T) {
	g, err := stgraph.New(9, 60, grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	a := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	for v := 0; v < n; v += 2 {
		a.Positive.Set(v)
	}
	// Positive-only features on a half-dense grid overlap under nearly
	// every randomization, so tauK = 1 >= tau and the test stops early.
	for _, kind := range []Kind{Restricted, Block} {
		plan := NewPlan(g.SpatialAdjacency(), 3)
		before := mPlanChunks.Value()
		res := Test(a, a, g, 0.01, Config{Permutations: 1000, Seed: 1, Kind: kind, Plan: plan, Workers: 1})
		if res.Shifts >= 1000 {
			t.Fatalf("kind=%v: expected an early stop, ran %d permutations", kind, res.Shifts)
		}
		want := uint64(res.Shifts+permChunk-1) / permChunk
		if got := mPlanChunks.Value() - before; got != want {
			t.Errorf("kind=%v: stopped after %d permutations but materialized %d chunks, want %d",
				kind, res.Shifts, got, want)
		}
		if again := Test(a, a, g, 0.01, Config{Permutations: 1000, Seed: 2, Kind: kind, Plan: plan}); again.Shifts != res.Shifts {
			t.Fatalf("kind=%v: second test ran %d permutations, want %d", kind, again.Shifts, res.Shifts)
		}
		if got := mPlanChunks.Value() - before; got != want {
			t.Errorf("kind=%v: repeated test drew new chunks (%d, want %d)", kind, got, want)
		}
	}
	before := mPlanChunks.Value()
	Test(a, a, g, 0.01, Config{Permutations: 200, Seed: 1, Kind: Standard, Plan: NewPlan(g.SpatialAdjacency(), 3)})
	if got := mPlanChunks.Value() - before; got != 0 {
		t.Errorf("a Standard test drew %d plan chunks, want 0", got)
	}
}

// TestPlanRetentionIsBounded: a test asking for more randomizations than a
// plan retains leaves the plan at planRetainChunks chunks. The chunks past
// the cap are redrawn on every use, with the same contents, so a repeated
// test returns the same result and draws only those chunks again.
func TestPlanRetentionIsBounded(t *testing.T) {
	g, err := stgraph.New(9, 60, grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	a := &feature.Set{Positive: bitvec.New(n), Negative: bitvec.New(n)}
	for v := 0; v < n; v += 2 {
		a.Positive.Set(v)
	}
	const extra = 3
	plan := NewPlan(g.SpatialAdjacency(), 5)
	cfg := Config{Permutations: (planRetainChunks + extra) * permChunk, Seed: 1, Plan: plan, Workers: 2, Exhaustive: true}
	retained := func() int {
		plan.mu.Lock()
		defer plan.mu.Unlock()
		return len(plan.chunks)
	}
	first := Test(a, a, g, 0.01, cfg)
	if first.Shifts != cfg.Permutations {
		t.Fatalf("exhaustive test ran %d permutations, want %d", first.Shifts, cfg.Permutations)
	}
	if got := retained(); got != planRetainChunks {
		t.Fatalf("plan retains %d chunks after %d randomizations, want %d", got, cfg.Permutations, planRetainChunks)
	}
	before := mPlanChunks.Value()
	if again := Test(a, a, g, 0.01, cfg); again != first {
		t.Errorf("repeated oversized test returned %+v, want %+v", again, first)
	}
	if got := mPlanChunks.Value() - before; got != extra {
		t.Errorf("repeated oversized test drew %d chunks, want the %d past the cap", got, extra)
	}
	if got := retained(); got != planRetainChunks {
		t.Errorf("plan grew to %d chunks on a repeated test, want %d", got, planRetainChunks)
	}
	w1, s1 := chunkContents(plan, planRetainChunks+1)
	w2, s2 := chunkContents(plan, planRetainChunks+1)
	if !slices.Equal(w1, w2) || !slices.Equal(s1, s2) {
		t.Error("a chunk past the cap changed between draws")
	}
}

// TestPlanSharedKernelParity: Test and ReferenceTest agree byte for byte
// when every test reads one shared plan, including tests over different
// step counts (a tile-compacted domain reuses the full domain's plan);
// and a shared plan seeded like Config.Seed reproduces the private-plan
// result exactly.
func TestPlanSharedKernelParity(t *testing.T) {
	adj := grid(4, 4)
	plan := NewPlan(adj, 31)
	rng := rand.New(rand.NewSource(8))
	for _, steps := range []int{1, 40, 64, 97} {
		g, err := stgraph.New(16, steps, adj)
		if err != nil {
			t.Fatal(err)
		}
		a, b := denseSets(rng, g.NumVertices(), 0.2, 0, g.NumVertices())
		for _, kind := range []Kind{Restricted, Block, Standard} {
			for _, workers := range []int{1, 3} {
				for _, tau := range []float64{0.5, -0.3} {
					cfg := Config{Permutations: 130, Seed: 31, Kind: kind, Workers: workers, Plan: plan}
					checkKernelParity(t, a, b, g, tau, cfg)
					shared := Test(a, b, g, tau, cfg)
					cfg.Plan = nil
					if private := Test(a, b, g, tau, cfg); shared != private {
						t.Fatalf("steps=%d kind=%v: shared plan %+v != private plan %+v", steps, kind, shared, private)
					}
				}
			}
		}
	}
}

// TestPlanRegionMismatchPanics: a plan drawn for another region set cannot
// be applied to a graph.
func TestPlanRegionMismatchPanics(t *testing.T) {
	g, err := stgraph.New(9, 20, grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := denseSets(rand.New(rand.NewSource(1)), g.NumVertices(), 0.3, 0, g.NumVertices())
	defer func() {
		if recover() == nil {
			t.Error("expected a panic for a plan over 16 regions on a 9-region graph")
		}
	}()
	Test(a, b, g, 0.5, Config{Permutations: 50, Plan: NewPlan(grid(4, 4), 1)})
}
