package montecarlo

import (
	"math/bits"
	"math/rand"
	"sync"

	"github.com/urbandata/datapolygamy/internal/obsv"
)

var mPlanChunks = obsv.NewCounter("polygamy_montecarlo_plan_chunks_total",
	"Randomization-plan chunks materialized (toroidal shifts and rotation words drawn).")

// planSalt decorrelates a plan's chunk streams from the per-test chunk
// streams of the same seed: a test run without a shared plan builds a
// private one from Config.Seed, and its Block randomizations still draw
// their block orders from chunkSeed(Config.Seed, ci).
const planSalt = 0x5851f42d4c957f2d

// Plan is the data-independent part of a restricted Monte Carlo test,
// drawn once for a spatial adjacency and a seed and shared by every test
// over that region set. Randomization k holds one raw rotation word and
// one toroidal shift of the regions; Restricted tests read both, Block
// tests read the shift. Everything that depends on the test's own step
// count — Block's block order, Standard's vertex permutation — stays on
// the test's Config.Seed stream.
//
// The plan is materialized lazily, one chunk of permChunk randomizations
// at a time, each chunk from its own splitmix stream keyed by the seed and
// the chunk index. A chunk's contents are therefore a pure function of
// (adjacency, seed, chunk index), whatever order or concurrency the tests
// reading it run in; only the first planRetainChunks chunks are kept. A Plan is immutable once drawn and safe for
// concurrent use.
type Plan struct {
	adj  [][]int
	seed int64

	mu     sync.Mutex
	chunks []*planChunk
}

// planChunk holds randomizations [ci*permChunk, (ci+1)*permChunk) of a
// plan. shifts stores them k-major, permChunk × R region images in one
// pointer-free slice; it is nil for a single-region plan.
type planChunk struct {
	once   sync.Once
	words  [permChunk]uint64
	shifts []int32
}

// NewPlan returns the (not yet materialized) plan for the region
// adjacency adj and seed. adj must not be modified afterwards.
func NewPlan(adj [][]int, seed int64) *Plan {
	return &Plan{adj: adj, seed: seed}
}

// planRetainChunks bounds a plan's memory: it keeps chunks
// [0, planRetainChunks), the first 10,000 randomizations (≈1.9 MB at
// R = 48). A chunk past that is drawn afresh on every use and dropped with
// the test reading it — same contents, since a chunk is a pure function of
// (adjacency, seed, chunk index) — so a test asking for more
// randomizations costs shift construction, as before plans existed, but
// never grows the plan. Permutations reaches here from request input.
const planRetainChunks = 200

// chunk returns chunk ci, drawing it on first use.
func (p *Plan) chunk(ci int) *planChunk {
	if ci >= planRetainChunks {
		c := new(planChunk)
		p.draw(ci, c)
		return c
	}
	p.mu.Lock()
	for len(p.chunks) <= ci {
		p.chunks = append(p.chunks, new(planChunk))
	}
	c := p.chunks[ci]
	p.mu.Unlock()
	c.once.Do(func() { p.draw(ci, c) })
	return c
}

// draw materializes chunk ci: per randomization one rotation word, then
// (for more than one region) one toroidal shift, from the chunk's stream.
func (p *Plan) draw(ci int, c *planChunk) {
	src := &splitmix{state: uint64(chunkSeed(p.seed, ci)) ^ planSalt}
	rng := rand.New(src)
	R := len(p.adj)
	var sc shiftScratch
	if R > 1 {
		c.shifts = make([]int32, permChunk*R)
	}
	for k := range c.words {
		c.words[k] = src.Uint64()
		if R > 1 {
			for r, v := range sc.toroidal(p.adj, rng) {
				c.shifts[k*R+r] = int32(v)
			}
		}
	}
	mPlanChunks.Inc()
}

// rotation maps randomization k's rotation word onto [1, nSteps-1]:
// rot = 1 + floor(word*(nSteps-1) / 2^64), so every test reduces the same
// word to its own step count. A single-step domain cannot rotate.
func (c *planChunk) rotation(k, nSteps int) int {
	if nSteps <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(c.words[k], uint64(nSteps-1))
	return 1 + int(hi)
}

// shift returns randomization k's region map (region r lands on
// shift[r]), or nil for a single-region plan.
func (c *planChunk) shift(k, nRegions int) []int32 {
	if c.shifts == nil {
		return nil
	}
	return c.shifts[k*nRegions : (k+1)*nRegions]
}
