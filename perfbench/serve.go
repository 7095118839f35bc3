package main

// serve: polygamyd warm-starts on a snapshot that already holds the
// relationship graph and answers a hot, Zipf-skewed read mix.
//
// Why: store open (in setup_s), query parsing, the query cache, JSON
// encoding (answers from under a hundred bytes to megabytes) and
// relationship-graph reads do the work, and Monte Carlo does none: every
// distinct request is issued once, untimed, before the timed phase. A Monte
// Carlo change must show no change here. Two connections, each a closed
// loop: a connection sends its next request when the previous response has
// been read.
//
// After the timed phase an epilogue appends late records over HTTP, so the
// append metrics every workload reports come from this server too.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/queryparse"
	"github.com/urbandata/datapolygamy/internal/spatial"
)

const (
	serveConns             = 2
	serveGraphPermutations = 30
	serveStarts            = 5  // warm starts; setup_s is their median
	serveLateParts         = 12 // the late records arrive as this many appends
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// queryResp is the part of polygamyd's query response the benchmark reads.
type queryResp struct {
	Relationships []relWire `json:"relationships"`
	Stats         struct {
		PairsConsidered int  `json:"pairsConsidered"`
		Pruned          int  `json:"pruned"`
		Evaluated       int  `json:"evaluated"`
		CacheHit        bool `json:"cacheHit"`
	} `json:"stats"`
	Trace []struct {
		Stage   string  `json:"stage"`
		Seconds float64 `json:"seconds"`
	} `json:"trace"`
}

func (r queryResp) queryStats() core.QueryStats {
	st := core.QueryStats{PairsConsidered: r.Stats.PairsConsidered, Pruned: r.Stats.Pruned,
		Evaluated: r.Stats.Evaluated, CacheHit: r.Stats.CacheHit}
	for _, s := range r.Trace {
		st.Stages = append(st.Stages, core.StageTiming{Stage: s.Stage, Duration: time.Duration(s.Seconds * 1e9)})
	}
	return st
}

// answerDigest hashes the relationships of a query response: everything
// before its "stats" member, which carries per-request timings.
func answerDigest(body []byte) uint32 {
	if i := bytes.LastIndex(body, []byte(`,"stats":`)); i >= 0 {
		body = body[:i]
	}
	return crc32.Checksum(body, castagnoli)
}

// writeCorpus writes each data set as <dir>/<name>.csv, the layout
// polygamyd -data reads.
func writeCorpus(dir string, ds []*dataset.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range ds {
		var b bytes.Buffer
		if err := dataset.WriteCSV(&b, d); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, d.Name+".csv"), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// readCorpus reads the data sets back the way polygamyd does (file name
// order), so an in-process framework holds exactly the server's corpus.
func readCorpus(dir string) ([]*dataset.Dataset, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []*dataset.Dataset
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		d, err := dataset.ReadCSV(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// newFramework registers ds in a new framework without indexing it.
func newFramework(city *spatial.CityMap, seed int64, ds []*dataset.Dataset) (*core.Framework, error) {
	fw, err := core.New(core.Options{City: city, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		if err := fw.AddDataset(d); err != nil {
			return nil, err
		}
	}
	return fw, nil
}

// servedItem is a serve request with what its warm-up returned.
type servedItem struct {
	serveItem
	q      core.Query
	digest uint32
	size   int
	resp   queryResp
}

func runServe(e *env) (*outcome, error) {
	out := newOutcome()
	city, all, err := demoCorpus.generate(e.seed)
	if err != nil {
		return nil, err
	}
	base, late := holdBack(all, demoCorpus.end(), serveLateParts)
	dataDir := filepath.Join(e.work, "data")
	if err := writeCorpus(dataDir, base); err != nil {
		return nil, err
	}
	corpus, err := readCorpus(dataDir)
	if err != nil {
		return nil, err
	}

	// Untimed preparation: the snapshot with index and graph.
	snap := filepath.Join(e.work, "serve.snap")
	prep, err := newFramework(city, e.seed, corpus)
	if err != nil {
		return nil, err
	}
	ist, err := prep.BuildIndex()
	if err != nil {
		return nil, err
	}
	if out.e2e["graph_build_s"], _, err = buildGraphs(e, prep, serveGraphPermutations); err != nil {
		return nil, err
	}
	if err := prep.Save(snap); err != nil {
		return nil, err
	}
	if out.e2e["snapshot_mb"], err = fileMB(snap); err != nil {
		return nil, err
	}
	e.phase("snapshot with graph")

	// Set-up: exec -> ready on the warm snapshot, repeated.
	args := []string{"-data", dataDir, "-snapshot", snap, "-seed", fmt.Sprint(e.seed), "-grid", fmt.Sprint(demoCorpus.Grid)}
	var starts []float64
	var d *daemon
	defer func() { _ = d.stop() }() // errors matter only on the success path, checked there
	for i := 0; i < serveStarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(e, fmt.Sprintf("polygamyd-%d.log", i), args...); err != nil {
			return nil, err
		}
		if err := d.waitReady(time.Minute); !e.t.op(err) {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
		blob, _, err := d.get("/v1/stats", "")
		var st struct {
			WarmStart bool `json:"warmStart"`
		}
		if e.t.op(err) && e.t.op(decodeJSON(blob, &st, "stats")) {
			e.t.check(st.WarmStart, "polygamyd start %d was not warm", i)
		}
	}
	out.e2e["setup_s"] = median(starts)
	e.phase("warm starts")

	// Untimed warm-up: every distinct request once; its answers are checked.
	names := make([]string, 0, len(corpus))
	for _, c := range corpus {
		names = append(names, c.Name)
	}
	mix := serveMix(names)
	items := make([]*servedItem, len(mix))
	warmStages := newStageStats()
	for i, it := range mix {
		s := &servedItem{serveItem: it}
		items[i] = s
		path := it.Path
		if it.Query != "" {
			if s.q, err = queryparse.Parse(it.Query); err != nil {
				return nil, fmt.Errorf("generated query %q does not parse: %w", it.Query, err)
			}
			path += "&trace=1"
		}
		blob, _, err := d.get(path, fmt.Sprintf("warm-%d", i))
		if !e.t.op(err) {
			continue
		}
		s.digest, s.size = answerDigest(blob), len(blob)
		if it.Query != "" {
			if e.t.op(decodeJSON(blob, &s.resp, "query response")) {
				checkAnswer(e.t, it.Query, s.resp.Relationships, s.q.Clause.Alpha)
				warmStages.add(s.resp.queryStats())
			}
		}
	}

	// The served answers must equal an in-process framework's, loaded
	// from the same snapshot.
	local, err := newFramework(city, e.seed, corpus)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	if err := local.Load(snap); !e.t.op(err) {
		return nil, fmt.Errorf("in-process load: %w", err)
	}
	var localAnswers []answered
	for _, s := range items {
		if s.Query == "" {
			continue
		}
		var rels []core.Relationship
		warmStages.allocMB = append(warmStages.allocMB, measureAlloc(func() { rels, _, err = local.Query(s.q) }))
		if e.t.op(err) {
			localAnswers = append(localAnswers, answered{text: s.Query, q: s.q, rels: rels})
			e.t.check(reflect.DeepEqual(toWire(rels), nonNil(s.resp.Relationships)), "%s: served answer differs from the in-process answer", s.Query)
		}
	}
	if g, ok := local.RelGraph(); e.t.check(ok, "snapshot has no relationship graph") {
		blob, _, err := d.get("/v1/graph/stats", "")
		var gs struct {
			Edges int `json:"edges"`
		}
		if e.t.op(err) && e.t.op(decodeJSON(blob, &gs, "graph stats")) {
			e.t.check(gs.Edges == g.NumEdges(), "served graph has %d edges, the snapshot %d", gs.Edges, g.NumEdges())
		}
	}

	sizes := make([]int, len(items))
	for i, s := range items {
		sizes[i] = s.size
	}
	order := popularityOrder(sizes)
	e.phase("warm-up and answer checks")

	// Timed phase.
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	ph := serveLoad(e, d, items, order, 0)
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	e.logTail(ph.report(out.e2e))
	e.phase("timed phase")
	if out.e2e["peak_rss_mb"], err = vmHWM(d.pid()); err != nil {
		return nil, err
	}

	var l map[string]float64
	if e.traced {
		l = out.layers
		e.tr.setEnabled(true)
		traced := serveLoad(e, d, items, order, 1)
		tm := map[string]float64{}
		traced.report(tm)
		out.overheadOf(out.e2e, tm)
		serverLayers(before, after, ph, l)
		mcLayers(before, after, l)
		warmStages.report(e, l)
		if err := probeLayers(e, local, city, corpus, ist, localAnswers, local, snap, l); err != nil {
			return nil, err
		}
		if err := d.runtimeStats(l); err != nil {
			return nil, err
		}
	}

	// Epilogue: the late records arrive over HTTP.
	var app appendLayers
	ap, err := appendOverHTTP(e, d, late, "late", &app, nil)
	if err != nil {
		return nil, err
	}
	out.e2e["append_p50_ms"] = median(ap.latMS)
	out.e2e["appends_per_s"] = float64(len(late)) / ap.wall.Seconds()
	e.phase(fmt.Sprintf("%d appends", len(late)))
	if e.traced {
		saveLayer(ap.before, ap.after, l)
		app.report(l)
		zeroLayers(l)
		if err := spanSummary(e); err != nil {
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping polygamyd: %w", err)
	}
	d = nil
	return out, nil
}

func nonNil(r []relWire) []relWire {
	if r == nil {
		return []relWire{}
	}
	return r
}

// loadPhase is a timed phase against polygamyd.
type loadPhase struct {
	latMS []float64
	at    []time.Duration // completion time of each sample, from the phase start
	ok    int
	bytes int64
	wall  time.Duration
}

// serveSlices splits serve's timed phase into equal slices of time. Each
// end-to-end figure is the median over the slices, so a burst of
// interference from outside the benchmark moves one slice, not the figure.
const serveSlices = 5

// The tail of every slice is taken at one percentile, the one the tail rule
// picks for the smallest slice.
func (p *loadPhase) report(m map[string]float64) tail {
	var p50s, tails, rates []float64
	w := p.wall / serveSlices
	slices := make([][]float64, serveSlices)
	for i, at := range p.at {
		k := min(int(at/w), serveSlices-1)
		slices[k] = append(slices[k], p.latMS[i])
	}
	smallest := slices[0]
	for _, lat := range slices {
		if len(lat) < len(smallest) {
			smallest = lat
		}
	}
	t, _ := tailPercentile(smallest)
	for _, lat := range slices {
		ok := 0
		for _, v := range lat {
			if !math.IsInf(v, 1) {
				ok++
			}
		}
		p50s = append(p50s, median(lat))
		tails = append(tails, percentileOf(lat, t.Percentile).Value)
		rates = append(rates, float64(ok)/w.Seconds())
	}
	m["query_p50_ms"] = median(p50s)
	m["query_tail_ms"] = median(tails)
	m["queries_per_s"] = median(rates)
	return t
}

// serveLoad runs the closed-loop read mix on serveConns connections for
// the run's seconds. Each response is checked: status 200, the same answer
// digest as its warm-up, and, for queries, a cache hit.
func serveLoad(e *env, d *daemon, items []*servedItem, order []int, pass int) *loadPhase {
	p := &loadPhase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(e.seconds)
	t0 := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			z := zipfSource(e.seed, pass*serveConns+c, len(items))
			var lat []float64
			var ats []time.Duration
			var ok int
			var nbytes int64
			for i := 0; time.Now().Before(deadline); i++ {
				s := items[order[z.Uint64()]]
				op := fmt.Sprintf("r-%d-%d-%d", pass, c, i)
				id := e.tr.start("http GET "+routeOf(s.Path), op, 0)
				blob, dur, err := d.get(s.Path, op)
				e.tr.end(id)
				if err == nil && answerDigest(blob) != s.digest {
					err = fmt.Errorf("%s: answer differs from its warm-up", s.Path)
				}
				if err == nil && s.Query != "" && !bytes.Contains(blob[max(0, len(blob)-512):], []byte(`"cacheHit":true`)) {
					err = fmt.Errorf("%s: repeated query was not a cache hit", s.Path)
				}
				ats = append(ats, time.Since(t0))
				if !e.t.op(err) {
					lat = append(lat, failedLatency)
					continue
				}
				lat = append(lat, ms(dur))
				ok++
				nbytes += int64(len(blob))
			}
			mu.Lock()
			p.latMS = append(p.latMS, lat...)
			p.at = append(p.at, ats...)
			p.ok += ok
			p.bytes += nbytes
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p
}

func routeOf(path string) string {
	u, err := url.Parse(path)
	if err != nil {
		return path
	}
	return u.Path
}

// serverLayers splits the client's latency into server time (polygamyd's
// per-route HTTP histogram, restricted to the given route labels when set)
// and transport (the rest), and reports the mean response size.
func serverLayers(before, after prom, p *loadPhase, out map[string]float64, routes ...string) {
	n := delta(before, after, "polygamy_http_request_duration_seconds_count", routes...)
	if n > 0 {
		server := 1e3 * delta(before, after, "polygamy_http_request_duration_seconds_sum", routes...) / n
		out["polygamyd.server_ms"] = server
		sum := 0.0
		for _, v := range p.latMS {
			sum += v
		}
		if len(p.latMS) > 0 {
			out["polygamyd.transport_ms"] = sum/float64(len(p.latMS)) - server
		}
	}
	if p.ok > 0 {
		out["polygamyd.response_kb"] = float64(p.bytes) / 1024 / float64(p.ok)
	}
}

// appendPhase is a stream of appends over HTTP.
type appendPhase struct {
	latMS         []float64
	wall          time.Duration
	before, after prom
}

// appendOverHTTP posts each slice as an append, waits for its job, and
// records job results into app. After each append, afterEach (when set)
// runs the read-after-write step.
func appendOverHTTP(e *env, d *daemon, slices []*dataset.Dataset, opPrefix string, app *appendLayers,
	afterEach func(i int, s *dataset.Dataset) error) (*appendPhase, error) {
	p := &appendPhase{}
	bodies := make([][]byte, len(slices))
	for i, s := range slices {
		var b bytes.Buffer
		if err := dataset.WriteCSV(&b, s); err != nil {
			return nil, err
		}
		bodies[i] = b.Bytes()
	}
	var err error
	if p.before, err = d.scrape(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i, s := range slices {
		op := fmt.Sprintf("%s-%d", opPrefix, i)
		id := e.tr.start("append", op, 0)
		t1 := time.Now()
		j, err := postAppend(e, d, s.Name, bodies[i], op, id)
		lat := time.Since(t1)
		e.tr.end(id)
		if !e.t.op(err) {
			p.latMS = append(p.latMS, failedLatency)
		} else {
			p.latMS = append(p.latMS, ms(lat))
			e.t.check(!resultBool(j, "fellBack"), "append %s to %s fell back to a full rebuild", op, s.Name)
			recordJob(j, lat, app)
		}
		if afterEach != nil {
			if err := afterEach(i, s); err != nil {
				return nil, err
			}
		}
	}
	p.wall = time.Since(t0)
	if p.after, err = d.scrape(); err != nil {
		return nil, err
	}
	return p, nil
}

func postAppend(e *env, d *daemon, name string, body []byte, op string, parent int) (jobWire, error) {
	var resp struct {
		Job jobWire `json:"job"`
	}
	id := e.tr.start("http POST /v1/datasets/{name}/append", op, parent)
	blob, _, err := d.post("/v1/datasets/"+url.PathEscape(name)+"/append", "text/csv", body, op)
	e.tr.end(id)
	if err != nil {
		return jobWire{}, err
	}
	if err := decodeJSON(blob, &resp, "append response"); err != nil {
		return jobWire{}, err
	}
	id = e.tr.start("http GET /v1/jobs/{id} (poll)", op, parent)
	defer e.tr.end(id)
	return d.awaitJob(resp.Job.ID, op, 2*time.Minute)
}

// recordJob adds an append job's result to the append layer counters;
// wait is the client time the job's own duration does not explain.
func recordJob(j jobWire, client time.Duration, app *appendLayers) {
	if dur, err := j.duration(); err == nil {
		app.waitMS = append(app.waitMS, ms(client-dur))
	}
	if w, err := time.ParseDuration(fmt.Sprint(j.Result["appendWall"])); err == nil {
		app.wallMS = append(app.wallMS, ms(w))
	}
	if resultBool(j, "extended") {
		app.extended++
	}
	app.tilesComputed += resultNum(j, "tilesComputed")
	app.tilesReused += resultNum(j, "tilesReused")
	app.entriesRebuilt += resultNum(j, "entriesRebuilt")
	app.entriesReused += resultNum(j, "entriesReused")
	app.pairsComputed += resultNum(j, "graphPairsComputed")
	app.pairsReused += resultNum(j, "graphPairsReused")
}
