package main

// explore: one analyst issuing ad-hoc relationship queries to the library.
//
// Why: planner, relationship evaluation, Monte Carlo and correction do
// nearly all of the work, and neither HTTP nor the store does any; the mix
// of 1,000 and 100 permutations exposes both the per-test set-up cost and
// the per-randomization cost. One client in a closed loop: the next query
// is issued when the previous answer returns (the engine itself uses every
// core). Every text has a new signature, so every timed query is uncached.
//
// After the timed phase an epilogue measures what every workload reports:
// in-range appends of late records, a corpus-wide graph build and a
// snapshot save.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/queryparse"
	"github.com/urbandata/datapolygamy/internal/spatial"
)

// setupReps is how many times each workload sets up from empty; setup_s is
// the median.
const setupReps = 3

const (
	// exploreGraphPermutations is the clause of explore's epilogue graph build.
	exploreGraphPermutations = 30
	// exploreLateParts cuts the late records into this many appends.
	exploreLateParts = 12
)

// answered is one completed query with what the checks and probes need.
type answered struct {
	text string
	q    core.Query
	rels []core.Relationship
}

func runExplore(e *env) (*outcome, error) {
	out := newOutcome()
	city, all, err := demoCorpus.generate(e.seed)
	if err != nil {
		return nil, err
	}
	base, late := holdBack(all, demoCorpus.end(), exploreLateParts)

	// Set-up: empty framework -> AddDataset x9 -> BuildIndex, repeated.
	var setups []float64
	var fw *core.Framework
	var indexStats core.IndexStats
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from the same heap: the previous framework is
		// garbage, so peak_rss_mb covers one framework, not two.
		fw = nil
		runtime.GC()
		t0 := time.Now()
		f, st, err := buildLibrary(e, city, base, fmt.Sprintf("setup-%d", i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fw, indexStats = f, st
	}
	out.e2e["setup_s"] = median(setups)
	e.phase("set-up")
	names := fw.Datasets()

	// Timed phase: whole rounds of the mix until the time is up, at least
	// exploreMinRounds.
	before := selfProm()
	ph, err := exploreQueries(e, fw, names, 0, exploreMinRounds, e.seconds)
	if err != nil {
		return nil, err
	}
	e.logTail(ph.report(out.e2e))
	e.phase(fmt.Sprintf("timed phase: %d rounds", ph.nextRound))
	after := selfProm()
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = rss

	// Answer checks, outside the timed phase.
	for i, a := range ph.done {
		checkAnswer(e.t, a.text, toWire(a.rels), a.q.Clause.Alpha)
		if i%8 == 0 {
			rels, st, err := fw.Query(a.q)
			if e.t.op(err) {
				e.t.check(st.CacheHit && reflect.DeepEqual(rels, a.rels), "%s: repeat was not an identical cache hit", a.text)
			}
		}
	}

	// Traced repeat of the timed phase, for the overhead, on the corpus the
	// untraced phase ran on: as many rounds of fresh texts, starting where
	// the variant cycle restarts, so the repeat has the untraced phase's
	// composition.
	var traced *queryPhase
	if e.traced {
		e.tr.setEnabled(true)
		rounds := ph.nextRound
		if traced, err = exploreQueries(e, fw, names, (rounds+exploreVariants-1)/exploreVariants*exploreVariants, rounds, 0); err != nil {
			return nil, err
		}
		tm := map[string]float64{}
		traced.report(tm)
		out.overheadOf(out.e2e, tm)
	}

	// Epilogue: late records, graph builds, snapshot. The appends come in
	// graphBuilds groups, each followed by a graph build, so that both are
	// sampled over a few seconds rather than in one burst.
	saveBefore := selfProm()
	var app appendLayers
	var appendMS, buildS []float64
	var appendWall time.Duration
	per := (len(late) + graphBuilds - 1) / graphBuilds
	for b := 0; b < graphBuilds; b++ {
		runtime.GC()
		for i := b * per; i < min(len(late), (b+1)*per); i++ {
			s := late[i]
			op := fmt.Sprintf("append-%d", i)
			var st core.AppendStats
			t1 := time.Now()
			e.tr.do("core.AppendSlice", op, 0, func() { st, err = fw.AppendSlice(s) })
			appendWall += time.Since(t1)
			if !e.t.op(err) {
				appendMS = append(appendMS, failedLatency)
				continue
			}
			appendMS = append(appendMS, ms(time.Since(t1)))
			e.t.check(!st.FellBack, "append %s fell back to a full rebuild", s.Name)
			app.addStats(st)
		}
		secs, gs, err := buildGraph(e, fw, exploreGraphPermutations-graphBuilds+1+b)
		if err != nil {
			return nil, err
		}
		buildS = append(buildS, secs)
		app.pairsComputed, app.pairsReused = float64(gs.PairsComputed), float64(gs.PairsReused)
	}
	out.e2e["append_p50_ms"] = median(appendMS)
	out.e2e["appends_per_s"] = float64(len(late)) / appendWall.Seconds()
	out.e2e["graph_build_s"] = median(buildS)
	e.phase(fmt.Sprintf("%d appends and %d graph builds", len(late), graphBuilds))

	snap := filepath.Join(e.work, "explore.snap")
	e.tr.do("core.Save", "save", 0, func() { err = fw.Save(snap) })
	if !e.t.op(err) {
		return nil, fmt.Errorf("snapshot save: %w", err)
	}
	if out.e2e["snapshot_mb"], err = fileMB(snap); err != nil {
		return nil, err
	}
	saveAfter := selfProm()

	if !e.traced {
		return out, nil
	}
	l := out.layers
	traced.stages.report(e, l)
	mcLayers(before, after, l)
	saveLayer(saveBefore, saveAfter, l)
	app.report(l)
	if err := probeLayers(e, fw, city, mergedCorpus(base, late), indexStats, ph.done, fw, snap, l); err != nil {
		return nil, err
	}
	runtimeSelf(l)
	zeroLayers(l)
	return out, spanSummary(e)
}

// buildLibrary is explore's set-up: a new framework, every data set added,
// the index built.
func buildLibrary(e *env, city *spatial.CityMap, ds []*dataset.Dataset, op string) (*core.Framework, core.IndexStats, error) {
	var st core.IndexStats
	root := e.tr.start("setup", op, 0)
	defer e.tr.end(root)
	fw, err := core.New(core.Options{City: city, Seed: e.seed})
	if err != nil {
		return nil, st, err
	}
	for _, d := range ds {
		e.tr.do("core.AddDataset", op, root, func() { err = fw.AddDataset(d) })
		if err != nil {
			return nil, st, err
		}
	}
	e.tr.do("core.BuildIndex", op, root, func() { st, err = fw.BuildIndex() })
	return fw, st, err
}

// mergedCorpus is the corpus after the late records arrived.
func mergedCorpus(base, late []*dataset.Dataset) []*dataset.Dataset {
	var out []*dataset.Dataset
	for _, d := range base {
		m := *d
		m.Tuples = append([]dataset.Tuple(nil), d.Tuples...)
		for _, s := range late {
			if s.Name == d.Name {
				m.Tuples = append(m.Tuples, s.Tuples...)
			}
		}
		out = append(out, &m)
	}
	return out
}

// queryPhase is the timed phase of explore.
type queryPhase struct {
	nextRound int
	latMS     []float64
	ok        int
	wall      time.Duration
	done      []answered
	stages    *stageStats
}

func (p *queryPhase) report(m map[string]float64) tail {
	m["query_p50_ms"] = median(p.latMS)
	t, _ := tailPercentile(p.latMS)
	m["query_tail_ms"] = t.Value
	m["queries_per_s"] = float64(p.ok) / p.wall.Seconds()
	return t
}

// exploreMinRounds is the least the timed phase runs, however fast. Three
// rounds put about 200 distinct query shapes around the median, so the
// median moves smoothly rather than jumping between two far-apart queries.
const exploreMinRounds = 3

// exploreQueries runs whole rounds of the explore mix, starting at
// firstRound, until minDur has passed and at least minRounds ran. With
// tracing on, every query gets a span and an allocation measurement.
func exploreQueries(e *env, fw *core.Framework, names []string, firstRound, minRounds int, minDur time.Duration) (*queryPhase, error) {
	p := &queryPhase{stages: newStageStats()}
	t0 := time.Now()
	round := firstRound
	for ; round < firstRound+minRounds || time.Since(t0) < minDur; round++ {
		for i, text := range exploreRound(e.seed, round, names, demoCorpus) {
			op := fmt.Sprintf("q-%d-%d", round, i)
			q, err := queryparse.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("generated query %q does not parse: %w", text, err)
			}
			var rels []core.Relationship
			var st core.QueryStats
			run := func() { rels, st, err = fw.Query(q) }
			t1 := time.Now()
			if e.tr.enabled() {
				id := e.tr.start("core.Query", op, 0)
				p.stages.allocMB = append(p.stages.allocMB, measureAlloc(run))
				e.tr.end(id)
			} else {
				run()
			}
			d := ms(time.Since(t1))
			if !e.t.op(err) {
				p.latMS = append(p.latMS, failedLatency)
				continue
			}
			p.latMS = append(p.latMS, d)
			p.ok++
			p.stages.add(st)
			p.done = append(p.done, answered{text: text, q: q, rels: rels})
		}
	}
	p.wall = time.Since(t0)
	p.nextRound = round
	if _, ok := tailPercentile(p.latMS); !ok {
		return nil, fmt.Errorf("explore ran %d queries, too few for a tail percentile", len(p.latMS))
	}
	return p, nil
}
