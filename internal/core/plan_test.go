package core

import (
	"bufio"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/montecarlo"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// regionalHours is the length of the regional fixtures: six weeks.
const regionalHours = 24 * 7 * 6

// regionalPair builds two neighborhood-level hourly data sets over six
// weeks. In a few dozen (region, hour) cells both deviate together — heat
// up, power draw up — on top of independent per-region noise, so tests at
// neighborhood and zip-code resolutions run real toroidal shifts.
func regionalPair(t *testing.T, seed int64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	nRegions := testCity(t).NumRegions(spatial.Neighborhood)
	rng := rand.New(rand.NewSource(seed))
	heat := &dataset.Dataset{Name: "heat", SpatialRes: spatial.Neighborhood, TemporalRes: temporal.Hour, Attrs: []string{"temp"}}
	power := &dataset.Dataset{Name: "power", SpatialRes: spatial.Neighborhood, TemporalRes: temporal.Hour, Attrs: []string{"load"}}
	events := map[[2]int]bool{}
	for len(events) < 40 {
		events[[2]int{rng.Intn(nRegions), rng.Intn(regionalHours)}] = true
	}
	for h := 0; h < regionalHours; h++ {
		for r := 0; r < nRegions; r++ {
			tv := 20 + rng.NormFloat64()
			pv := 100 + rng.NormFloat64()*4
			if events[[2]int{r, h}] {
				tv += 15
				pv += 80
			}
			at := ts(h/24, h%24)
			heat.Tuples = append(heat.Tuples, dataset.Tuple{Region: r, TS: at, Values: []float64{tv}})
			power.Tuples = append(power.Tuples, dataset.Tuple{Region: r, TS: at, Values: []float64{pv}})
		}
	}
	return heat, power
}

// regionalFW indexes the regional pair plus the planted city-level pair.
func regionalFW(t *testing.T, workers int) *Framework {
	t.Helper()
	f, err := New(Options{City: testCity(t), Workers: workers, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	heat, power := regionalPair(t, 41)
	wind, trips := plantedPair(42, randomHours(43, 30), nil)
	for _, d := range []*dataset.Dataset{heat, power, wind, trips} {
		if err := f.AddDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return f
}

// planChunksTotal reads polygamy_montecarlo_plan_chunks_total as /metrics
// serves it.
func planChunksTotal(t *testing.T) uint64 {
	t.Helper()
	var b strings.Builder
	if err := obsv.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "polygamy_montecarlo_plan_chunks_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("/metrics does not serve polygamy_montecarlo_plan_chunks_total")
	return 0
}

// TestPlanSharedAcrossQueries: every test at a spatial resolution reads
// one randomization plan, so answers do not depend on worker counts,
// query order or concurrency, and a repeated uncached query draws no new
// plan chunks.
func TestPlanSharedAcrossQueries(t *testing.T) {
	nbhdDay := Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Day}
	nbhdHour := Resolution{Spatial: spatial.Neighborhood, Temporal: temporal.Hour}
	zipDay := Resolution{Spatial: spatial.ZipCode, Temporal: temporal.Day}
	cityHour := Resolution{Spatial: spatial.City, Temporal: temporal.Hour}
	queries := []Query{
		{Clause: Clause{Permutations: 120, Resolutions: []Resolution{nbhdDay}}},
		{Clause: Clause{Permutations: 120, Resolutions: []Resolution{nbhdHour, zipDay}}},
		{Clause: Clause{Permutations: 90, Resolutions: []Resolution{zipDay}, Exhaustive: true}},
		{Clause: Clause{Permutations: 100, Resolutions: []Resolution{nbhdDay}, TestKind: montecarlo.Block}},
		{Clause: Clause{Permutations: 100, Resolutions: []Resolution{cityHour}}},
		{Sources: []string{"heat"}, Targets: []string{"power"}, Clause: Clause{Permutations: 150}},
	}

	seq := regionalFW(t, 1)
	before := planChunksTotal(t)
	want := make([][]Relationship, len(queries))
	multiRegion := 0
	for i, q := range queries {
		rels, _, err := seq.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rels
		for _, r := range rels {
			if r.Res.Spatial != spatial.City {
				multiRegion++
			}
		}
	}
	if multiRegion == 0 {
		t.Fatal("no relationship at a multi-region resolution; the fixture does not exercise toroidal shifts")
	}
	if planChunksTotal(t) == before {
		t.Fatal("the queries drew no plan chunks")
	}

	par := regionalFW(t, 4)
	got := make([][]Relationship, len(queries))
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for i := len(queries) - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rels, _, err := par.Query(queries[i])
			if err != nil {
				errs <- err
				return
			}
			got[i] = rels
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range queries {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d: concurrent 4-worker answer differs from the sequential 1-worker one", i)
		}
	}

	// Drop the query cache and repeat the first query: every plan chunk it
	// needs is already drawn.
	total := planChunksTotal(t)
	seq.cacheMu.Lock()
	seq.cache = make(map[string]*cachedResult)
	seq.cacheMu.Unlock()
	rels, st, err := seq.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("repeated query was served from the cache")
	}
	if !reflect.DeepEqual(rels, want[0]) {
		t.Error("repeated uncached query changed its answer")
	}
	if d := planChunksTotal(t) - total; d != 0 {
		t.Errorf("repeated uncached query drew %d new plan chunks (polygamy_montecarlo_plan_chunks_total), want 0", d)
	}
	if nb := seq.plans[spatial.Neighborhood]; nb == nil || nb == seq.plans[spatial.ZipCode] {
		t.Error("plans must be one per spatial resolution")
	}
}

// TestGraphRejectsUntaggedSignature: a graph section saved before the
// randomization scheme was part of the signature (its p-values came from
// per-test shifts) is never reused: the next BuildGraph re-tests every
// pair and equals a fresh build.
func TestGraphRejectsUntaggedSignature(t *testing.T) {
	clause := graphClause()
	old := stressFW(t)
	if _, err := old.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	old.graphMu.Lock()
	untagged, ok := strings.CutSuffix(old.graphSig, "|rand="+randScheme)
	old.graphSig = untagged
	old.graphMu.Unlock()
	if !ok {
		t.Fatalf("graph signature %q carries no randomization-scheme tag", untagged)
	}
	path := saveTemp(t, old)

	f := stressFW(t)
	if err := f.Load(path); err != nil {
		t.Fatal(err)
	}
	st, err := f.BuildGraph(clause)
	if err != nil {
		t.Fatal(err)
	}
	if st.PairsReused != 0 || st.PairsComputed != st.Pairs {
		t.Errorf("build over an untagged snapshot reused %d of %d pairs, want 0", st.PairsReused, st.Pairs)
	}
	fresh := stressFW(t)
	if _, err := fresh.BuildGraph(clause); err != nil {
		t.Fatal(err)
	}
	g, _ := f.RelGraph()
	want, _ := fresh.RelGraph()
	if !g.Equal(want) {
		t.Error("graph rebuilt over an untagged snapshot differs from a fresh build")
	}
}
