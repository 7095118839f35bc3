package main

// grow: the write path. polygamyd cold-starts on a corpus smaller than the
// demo corpus, builds the relationship graph, then receives a time-ordered
// stream of per-data-set slices. Each append runs AppendSlice, a delta graph
// refresh and a snapshot re-save (fsync on) in a background job; after it
// completes, growReads read-after-write queries touch the appended data set.
//
// Why: this is the path that uses the index layers (scalar, topology,
// feature, temporal tiling), graph reuse and the store's save very
// differently from explore, so a change that moves work into index or
// snapshot time shows a cost here. Each window holds one range-extending
// append (it re-tests every data set pair) and four in-range ones.
// One client in a closed loop: the next append is posted after the previous
// one's job is done and its read-after-write queries have returned. The
// stream is a fixed amount of work, growStreamWindows windows, so a faster
// program is measured on the same appends, not on more of them over a
// larger corpus.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/queryparse"
)

const (
	// growGraphPermutations is the clause of grow's graph build; every
	// append's graph refresh re-tests under it.
	growGraphPermutations = 40
	// growGraphBuilds is how many builds graph_build_s is the median of.
	growGraphBuilds = 5
	// growStreamWindows is how many windows the timed stream sends, about
	// ten to twenty seconds of work on a two-core machine. It is odd, so
	// the stream's appends are an odd number and their median is one
	// append's latency.
	growStreamWindows = 5
	// growSpareWindows are generated beyond the untraced stream and the
	// traced repeat, in case a window misses a feed and is merged into the
	// next.
	growSpareWindows = 2
)

// growAts are the resolution sets the read-after-write queries cycle
// through, so that a stream's reads are all distinct queries with many
// distinct costs, and their percentiles move smoothly.
var growAts = []string{
	"(day, neighborhood), (week, city)", "(day, city), (month, neighborhood)", "(week, zip), (day, city)",
	"(day, zip)", "(week, neighborhood), (month, city)",
}

// growQuery is the k-th read-after-write query after an append to
// appended.
func growQuery(appended, other string, k int) string {
	return "find relationships between " + appended + " and " + other +
		" where permutations = 300 at " + growAts[k%len(growAts)]
}

func runGrow(e *env) (*outcome, error) {
	out := newOutcome()
	// The corpus always holds windows for the untraced stream and the
	// traced repeat, so both runs of a seed share their inputs.
	n := growStreamWindows
	spec := growSpec(2*n + growSpareWindows)
	city, all, err := spec.generate(e.seed)
	if err != nil {
		return nil, err
	}
	base, windows := growStream(all, spec)
	if len(windows) < 2*n {
		return nil, fmt.Errorf("the grow corpus of seed %d has %d complete windows, want %d", e.seed, len(windows), 2*n)
	}
	dataDir := filepath.Join(e.work, "data")
	if err := writeCorpus(dataDir, base); err != nil {
		return nil, err
	}
	snap := filepath.Join(e.work, "grow.snap")

	// Set-up: exec -> cold index build -> snapshot written -> ready,
	// repeated from an empty snapshot path.
	args := []string{"-data", dataDir, "-snapshot", snap, "-seed", fmt.Sprint(e.seed), "-grid", fmt.Sprint(spec.Grid)}
	var starts []float64
	var d *daemon
	defer func() { _ = d.stop() }() // errors matter only on the success path, checked there
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if err := removeIfExists(snap); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if d, err = startDaemon(e, fmt.Sprintf("polygamyd-%d.log", i), args...); err != nil {
			return nil, err
		}
		if err := d.waitReady(2 * time.Minute); !e.t.op(err) {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	out.e2e["setup_s"] = median(starts)
	e.phase("cold starts")

	// The corpus-wide graph build, growGraphBuilds times under clauses that
	// differ only in the permutation count, so each build re-tests every
	// pair; the last one, at growGraphPermutations, is the clause appends
	// refresh.
	var builds []float64
	for p := growGraphPermutations - growGraphBuilds + 1; p <= growGraphPermutations; p++ {
		body := []byte(fmt.Sprintf(`{"clause":{"permutations":%d}}`, p))
		_, dur, err := d.post("/v1/graph/build", "application/json", body, fmt.Sprintf("graph-%d", p))
		if !e.t.op(err) {
			return nil, fmt.Errorf("graph build: %w", err)
		}
		builds = append(builds, dur.Seconds())
	}
	out.e2e["graph_build_s"] = median(builds)
	e.phase("graph builds")

	names, err := datasetNames(dataDir)
	if err != nil {
		return nil, err
	}
	g := &growRun{e: e, d: d, names: names}
	var app appendLayers
	ph, err := g.stream(windows[:n], 0, &app)
	if err != nil {
		return nil, err
	}
	e.logTail(ph.report(out.e2e))
	e.phase(fmt.Sprintf("stream: %d windows, %d appends", n, len(ph.ap.latMS)))
	logAppendCosts(e, g.sent, ph.ap.latMS)
	if out.e2e["peak_rss_mb"], err = vmHWM(d.pid()); err != nil {
		return nil, err
	}

	var l map[string]float64
	if e.traced {
		l = out.layers
		serverLayers(ph.ap.before, ph.ap.after, &loadPhase{latMS: ph.queryMS, ok: ph.okQueries, bytes: ph.queryBytes}, l,
			`route="GET /v1/query"`)
		mcLayers(ph.ap.before, ph.ap.after, l)
		saveLayer(ph.ap.before, ph.ap.after, l)
		app.report(l)
		if err := d.runtimeStats(l); err != nil {
			return nil, err
		}
		// Traced repeat: the stream continues for as many windows.
		e.tr.setEnabled(true)
		traced, err := g.stream(windows[n:2*n], n, &appendLayers{})
		if err != nil {
			return nil, err
		}
		tm := map[string]float64{}
		traced.report(tm)
		out.overheadOf(out.e2e, tm)
		traced.stages.report(e, l)
	}

	// The jobs all finished without falling back (checked per job); now
	// stop the server and compare its re-saved snapshot with a rebuild.
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping polygamyd: %w", err)
	}
	d = nil
	if out.e2e["snapshot_mb"], err = fileMB(snap); err != nil {
		return nil, err
	}
	merged, err := readCorpus(dataDir)
	if err != nil {
		return nil, err
	}
	for _, s := range g.sent {
		for _, m := range merged {
			if m.Name == s.Name {
				m.Tuples = append(m.Tuples, s.Tuples...)
			}
		}
	}
	loaded, err := newFramework(city, e.seed, merged)
	if err != nil {
		return nil, err
	}
	defer loaded.Close()
	err = loaded.Load(snap)
	if !e.t.op(err) {
		return nil, fmt.Errorf("loading the re-saved snapshot: %w", err)
	}
	rebuilt, err := newFramework(city, e.seed, merged)
	if err != nil {
		return nil, err
	}
	var ist core.IndexStats
	e.tr.do("core.BuildIndex", "rebuild", 0, func() { ist, err = rebuilt.BuildIndex() })
	if !e.t.op(err) {
		return nil, err
	}
	e.tr.do("core.BuildGraph", "rebuild", 0, func() {
		_, err = rebuilt.BuildGraph(core.Clause{Permutations: growGraphPermutations})
	})
	if !e.t.op(err) {
		return nil, err
	}
	ga, okA := loaded.RelGraph()
	gb, okB := rebuilt.RelGraph()
	e.t.check(okA && okB && ga.Equal(gb), "the re-saved snapshot's graph differs from a rebuild over the merged corpus")
	e.phase("rebuild check")

	if !e.traced {
		return out, nil
	}
	// The read-after-write queries, answered in-process: uncached, once each.
	var answers []answered
	alloc := newStageStats()
	for _, text := range g.texts {
		if slices.ContainsFunc(answers, func(a answered) bool { return a.text == text }) {
			continue // a repeat would be a cache hit
		}
		q, err := queryparse.Parse(text)
		if err != nil {
			return nil, err
		}
		var rels []core.Relationship
		alloc.allocMB = append(alloc.allocMB, measureAlloc(func() { rels, _, err = rebuilt.Query(q) }))
		if e.t.op(err) {
			answers = append(answers, answered{text: text, q: q, rels: rels})
		}
	}
	l["core.query_alloc_mb"] = median(alloc.allocMB)
	if err := probeLayers(e, rebuilt, city, merged, ist, answers, loaded, snap, l); err != nil {
		return nil, err
	}
	zeroLayers(l)
	return out, spanSummary(e)
}

// growRun is the state of one grow stream.
type growRun struct {
	e     *env
	d     *daemon
	names []string
	sent  []*dataset.Dataset // every slice appended, in order, as the server parsed it
	texts []string           // every read-after-write query text
	n     int                // appends so far, across phases
}

// growPhase is one timed stream.
type growPhase struct {
	ap         *appendPhase
	queryMS    []float64 // every read of the phase
	okQueries  int
	queryBytes int64
	stages     *stageStats
}

// report gives the medians and the tail over every append and read of the
// phase, and the rates over the stream's wall time.
func (p *growPhase) report(m map[string]float64) tail {
	ok := 0
	for _, v := range p.ap.latMS {
		if !math.IsInf(v, 1) {
			ok++
		}
	}
	m["append_p50_ms"] = median(p.ap.latMS)
	m["appends_per_s"] = float64(ok) / p.ap.wall.Seconds()
	m["query_p50_ms"] = median(p.queryMS)
	t, _ := tailPercentile(p.queryMS)
	m["query_tail_ms"] = t.Value
	m["queries_per_s"] = float64(p.okQueries) / p.ap.wall.Seconds()
	return t
}

// stream sends every window of windows (window number first onwards) in
// order, each one whole, so every run has the same mix of range-extending
// and in-range appends.
func (g *growRun) stream(windows [][]*dataset.Dataset, first int, app *appendLayers) (*growPhase, error) {
	p := &growPhase{stages: newStageStats()}
	var all []*dataset.Dataset
	for _, win := range windows {
		all = append(all, win...)
	}
	ap, err := appendOverHTTP(g.e, g.d, all, fmt.Sprintf("a%d", first), app, g.readAfterWrite(p))
	if err != nil {
		return nil, err
	}
	p.ap = ap
	if _, ok := tailPercentile(p.queryMS); !ok {
		return nil, fmt.Errorf("grow stream made %d queries, too few for a tail percentile", len(p.queryMS))
	}
	return p, nil
}

// readAfterWrite returns the step run after each append: record the slice
// as sent, then query what the append changed: growReads relationship
// queries pairing the appended data set with others, uncached since the
// append invalidated them. Several reads per append give the tail
// percentile enough samples in one run.
func (g *growRun) readAfterWrite(p *growPhase) func(int, *dataset.Dataset) error {
	return func(_ int, s *dataset.Dataset) error {
		var b bytes.Buffer
		if err := dataset.WriteCSV(&b, s); err != nil {
			return err
		}
		parsed, err := dataset.ReadCSV(&b)
		if err != nil {
			return err
		}
		parsed.Name = s.Name
		g.sent = append(g.sent, parsed)

		// The resolution set moves on by one more each window, so over
		// len(growAts) windows every pair is read at every set: with the
		// same set in every window, the stream would repeat 30 queries five
		// times, and its percentiles would jump between the costs of a few
		// groups of repeated queries.
		op := fmt.Sprintf("q%d", g.n)
		k := g.n + g.n/len(growFeeds)
		for i, other := range growOthers(g.names, s.Name) {
			if err := g.query(p, growQuery(s.Name, other, k+i), op); err != nil {
				return err
			}
		}
		g.n++
		return nil
	}
}

// query issues one read-after-write query and checks its answer.
func (g *growRun) query(p *growPhase, text, op string) error {
	g.texts = append(g.texts, text)
	path := "/v1/query?q=" + url.QueryEscape(text)
	if g.e.tr.enabled() {
		path += "&trace=1"
	}
	id := g.e.tr.start("http GET /v1/query", op, 0)
	blob, dur, err := g.d.get(path, op)
	g.e.tr.end(id)
	var resp queryResp
	if err == nil {
		err = decodeJSON(blob, &resp, "query response")
	}
	if !g.e.t.op(err) {
		p.queryMS = append(p.queryMS, failedLatency)
		return nil
	}
	p.queryMS = append(p.queryMS, ms(dur))
	p.okQueries++
	p.queryBytes += int64(len(blob))
	q, err := queryparse.Parse(text)
	if err != nil {
		return fmt.Errorf("generated query %q does not parse: %w", text, err)
	}
	checkAnswer(g.e.t, text, resp.Relationships, q.Clause.Alpha)
	p.stages.add(resp.queryStats())
	return nil
}

// logAppendCosts logs the median append latency of each data set.
func logAppendCosts(e *env, sent []*dataset.Dataset, latMS []float64) {
	by := map[string][]float64{}
	var names []string
	for i, s := range sent[:min(len(sent), len(latMS))] {
		if by[s.Name] == nil {
			names = append(names, s.Name)
		}
		by[s.Name] = append(by[s.Name], latMS[i])
	}
	for _, n := range names {
		e.logf("    append to %-16s p50 %9.1f ms over %d", n, median(by[n]), len(by[n]))
	}
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// datasetNames lists the corpus's data sets in the server's order.
func datasetNames(dir string) ([]string, error) {
	ds, err := readCorpus(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	return out, nil
}
