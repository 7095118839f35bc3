package main

// Input generators. Every function here is a pure function of the seed (and
// of the corpus the seed generates): the same seed gives the same corpus,
// slices, query texts and Zipf draws, and the program only ever sees the
// generated CSVs, slices and texts.

import (
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// corpusSpec sizes a synthetic urban corpus (the nine data sets of the
// paper's Table 1, from internal/urban).
type corpusSpec struct {
	Grid  int
	Start time.Time
	Days  int
	Scale float64
}

func (c corpusSpec) end() time.Time { return c.Start.AddDate(0, 0, c.Days) }

// demoCorpus is the repository's demo corpus (grid 16, two months, scale
// 0.1): 9 data sets, 1,372 functions. explore and serve run on it.
var demoCorpus = corpusSpec{Grid: 16, Start: time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC), Days: 59, Scale: 0.1}

// growSpec is the grow corpus: smaller than the demo corpus so that a grow
// run, which refreshes the graph and re-saves the snapshot after every
// append, stays short. It is a 28-day base followed by the given number of
// two-day windows of appends.
func growSpec(windows int) corpusSpec {
	return corpusSpec{Grid: 12, Start: time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC),
		Days: growBaseDays + windows*growWindowDays, Scale: 0.05}
}

const (
	growBaseDays   = 28
	growWindowDays = 2
)

// generate builds the corpus of one seed. The city uses the same seed and
// grid as polygamyd's -seed/-grid flags, so a daemon started with them
// accepts the generated CSVs and snapshots.
func (c corpusSpec) generate(seed int64) (*spatial.CityMap, []*dataset.Dataset, error) {
	city, err := spatial.Generate(spatial.GridConfig(seed, c.Grid))
	if err != nil {
		return nil, nil, err
	}
	col, err := urban.Generate(urban.Config{Seed: seed, City: city, Start: c.Start, End: c.end(), Scale: c.Scale})
	if err != nil {
		return nil, nil, err
	}
	return city, col.Datasets, nil
}

// lateName is the data set that receives late-arriving records in explore
// and serve: its records of three days, 84 to 12 hours before the corpus
// end, are held back from the base corpus and appended after the timed
// phase. The slices end before the weather feed's last hourly record, so
// these appends never extend the corpus time range. The 911 feed has a
// dozen or so records a day in the demo corpus, enough for every part of
// holdBack's split on every seed. Every append goes to the one data set, so
// every append re-tests the same data set pairs and costs about the same:
// the median of a run's appends then does not fall between the costs of
// different data sets.
const lateName = "calls_911"

// holdBack splits off the late records of lateName, cut into up to parts
// consecutive slices of equal record counts (fewer when it has fewer late
// records, so no slice is empty), in time order.
func holdBack(ds []*dataset.Dataset, end time.Time, parts int) (base, late []*dataset.Dataset) {
	lo, hi := end.Add(-84*time.Hour).Unix(), end.Add(-12*time.Hour).Unix()
	isLate := func(t dataset.Tuple) bool { return t.TS >= lo && t.TS < hi }
	for _, d := range ds {
		if d.Name == lateName {
			held := d.Filter(d.Name, isLate)
			sort.SliceStable(held.Tuples, func(i, j int) bool { return held.Tuples[i].TS < held.Tuples[j].TS })
			n := len(held.Tuples)
			k := min(parts, n)
			for p := 0; p < k; p++ {
				part := *held
				part.Tuples = held.Tuples[p*n/k : (p+1)*n/k]
				late = append(late, &part)
			}
			d = d.Filter(d.Name, func(t dataset.Tuple) bool { return !isLate(t) })
		}
		base = append(base, d)
	}
	return base, late
}

// growFeeds are the data sets the grow stream appends to, and growExtender
// the one among them whose append opens each window and extends the corpus
// time range. The stream leaves weather, collisions and citibike in the
// base: an in-range append to them, or to twitter, costs two to five times
// one to the other three feeds. Each window then holds, in cost order,
// three cheap in-range appends, one dearer in-range append and the
// range-extending one, so the median of a stream's appends is the middle
// append to the third cheapest feed, not a value between two feeds' costs
// that jumps from run to run. Weekly gas prices stay in the base too: their
// slices would be empty in most windows. The records of the other data sets
// after the base are never sent.
var growFeeds = []string{"calls_911", "complaints_311", "taxi", "traffic_speed", "twitter"}

// growExtender is the busiest feed, with records every hour or so, so every
// window has a slice of it.
const growExtender = "taxi"

// growStream splits the grow corpus into the base (the first growBaseDays)
// and a time-ordered stream of windows. Window w holds growExtender's
// records of the w-th growWindowDays days, first, and then, in name order,
// the other feeds' records up to the last of those: the first append of a
// window extends the corpus time range and every later one lands inside it,
// in every window and for every seed. A window that misses a feed is left
// out, its records carried into the next, so every window has the same
// composition.
func growStream(ds []*dataset.Dataset, c corpusSpec) (base []*dataset.Dataset, windows [][]*dataset.Dataset) {
	cut := c.Start.AddDate(0, 0, growBaseDays)
	var ext *dataset.Dataset
	var others []*dataset.Dataset
	for _, d := range ds {
		base = append(base, d.Filter(d.Name, func(t dataset.Tuple) bool { return t.TS < cut.Unix() }))
		switch {
		case d.Name == growExtender:
			ext = d
		case slices.Contains(growFeeds, d.Name):
			others = append(others, d)
		}
	}
	if ext == nil {
		return base, nil
	}
	sort.Slice(others, func(i, j int) bool { return others[i].Name < others[j].Name })
	extFrom, from := cut.Unix(), cut.Unix() // records from here on are not sent yet
	for w := 0; w < (c.Days-growBaseDays)/growWindowDays; w++ {
		hi := cut.AddDate(0, 0, (w+1)*growWindowDays).Unix()
		first := ext.Filter(ext.Name, func(t dataset.Tuple) bool { return t.TS >= extFrom && t.TS < hi })
		_, last, ok := first.TimeRange()
		if !ok {
			continue
		}
		win := []*dataset.Dataset{first}
		for _, d := range others {
			if s := d.Filter(d.Name, func(t dataset.Tuple) bool { return t.TS >= from && t.TS <= last }); len(s.Tuples) > 0 {
				win = append(win, s)
			}
		}
		if len(win) < len(growFeeds) {
			continue
		}
		windows = append(windows, win)
		extFrom, from = hi, last+1
	}
	return base, windows
}

// exploreVariants is the number of clause variants explore cycles through.
const exploreVariants = 5

// exploreRound is one round of the explore mix: every cross pair of data
// sets under two of five clause variants (default 1,000 permutations;
// permutations = 100; extreme features only; an `at` resolution subset; a
// 21-day `between` window), plus one query of each data set against all
// others, shuffled. Which variants a pair gets depends only on the pair and
// the round number, so round r of every seed has the same composition and
// run-to-run figures compare like with like; over rounds each pair cycles
// through all five variants. The seed draws the order, the corrections and
// where each pair's window starts. Round r > 0 adds a negligible score
// floor so that every text has a new signature and misses the query cache.
func exploreRound(seed int64, round int, names []string, c corpusSpec) []string {
	params := rand.New(rand.NewSource(seed * 7919))                 // per pair, the same in every round
	order := rand.New(rand.NewSource(seed*7919 + int64(round) + 1)) // per round
	corr := func() string {
		return []string{"", "correction = bh", "correction = by"}[order.Intn(3)]
	}
	var combos []string
	for _, t := range []string{"hour", "day", "week", "month"} {
		for _, s := range []string{"zip", "neighborhood", "city"} {
			combos = append(combos, fmt.Sprintf("(%s, %s)", t, s))
		}
	}
	build := func(pair string, where []string, rest string) string {
		if round > 0 {
			where = append(where, fmt.Sprintf("score >= %.4f", 0.0001*float64(round)))
		}
		var ws []string
		for _, w := range where {
			if w != "" {
				ws = append(ws, w)
			}
		}
		q := "find relationships between " + pair
		if len(ws) > 0 {
			q += " where " + strings.Join(ws, " and ")
		}
		return q + rest
	}
	const windowDays = 21
	var texts []string
	k := 0
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			pair := names[i] + " and " + names[j]
			from := c.Start.AddDate(0, 0, params.Intn(c.Days-windowDays))
			variants := []string{
				build(pair, []string{corr()}, ""),
				build(pair, []string{"permutations = 100", corr()}, ""),
				build(pair, []string{corr()}, " using extreme features"),
				build(pair, nil, " at "+combos[k%len(combos)]+", "+combos[(k+5)%len(combos)]),
				build(pair, []string{"permutations = 100"},
					" between "+from.Format("2006-01-02")+" and "+from.AddDate(0, 0, windowDays).Format("2006-01-02")),
			}
			texts = append(texts, variants[(k+round)%exploreVariants], variants[(k+round+2)%exploreVariants])
			k++
		}
	}
	for _, n := range names {
		texts = append(texts, build(n+" and all", []string{"permutations = 100", corr()}, " at (week, city), (day, neighborhood)"))
	}
	order.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	return texts
}

// serveItem is one distinct request of the serve mix.
type serveItem struct {
	Path  string // request path and query string
	Query string // the query text, for /v1/query items
}

// serveMix lists the distinct requests of the serve workload: one query
// text per cross pair of data sets, the clause variant cycling through
// three forms (permutation counts up to 100 keep the untimed warm-up
// short), weather~taxi in full (the corpus's largest answer, so response
// sizes span from an empty answer to megabytes), three one-vs-all queries,
// and twelve relationship-graph reads. The list is the same for every
// seed, so the response sizes a run serves depend only on the corpus; the
// seed draws the request sequence (zipfSource).
func serveMix(names []string) []serveItem {
	var items []serveItem
	query := func(q string) {
		items = append(items, serveItem{Path: "/v1/query?q=" + url.QueryEscape(q), Query: q})
	}
	k := 0
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			pair := names[i] + " and " + names[j]
			switch k % 3 {
			case 0:
				query("find relationships between " + pair + " where permutations = 60")
			case 1:
				query("find relationships between " + pair + " where permutations = 100 at (day, neighborhood), (week, city)")
			case 2:
				query("find relationships between " + pair + " where permutations = 60 using extreme features")
			}
			k++
		}
	}
	query("find relationships between weather and taxi where permutations = 100")
	for _, n := range names[:3] {
		query("find relationships between " + n + " and all where permutations = 100 at (week, city)")
	}
	for _, p := range []string{
		"/v1/graph/stats",
		"/v1/graph/top?k=5&by=score", "/v1/graph/top?k=25&by=strength", "/v1/graph/top?k=100&by=score",
		"/v1/graph/top?k=500&by=strength",
		"/v1/graph/neighbors?dataset=" + names[0], "/v1/graph/neighbors?dataset=" + names[2],
		"/v1/graph/neighbors?dataset=" + names[4], "/v1/graph/neighbors?dataset=" + names[6],
		"/v1/graph/neighbors?dataset=" + names[8],
		"/v1/graph/neighbors?dataset=" + names[1] + "&hops=2", "/v1/graph/neighbors?dataset=" + names[5] + "&hops=3",
	} {
		items = append(items, serveItem{Path: p})
	}
	return items
}

// zipfExponent skews the serve mix: the most popular request draws about a
// fifth of the traffic.
const zipfExponent = 1.1

// zipfSource is the request sequence of one serve connection, as ranks
// into the popularity order (0 = most popular).
func zipfSource(seed int64, stream, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed*1000003+int64(stream))), zipfExponent, 1, uint64(n-1))
}

// bigRank is the popularity rank of the largest answer: at rank 2 it draws
// about 8% of requests, so the serve tail percentile (p95 or higher) lies
// inside that one answer's latencies instead of on the edge between several
// items'.
const bigRank = 2

// popularityOrder maps popularity ranks to items by response size,
// middle-out: the most popular item has the median size, then the sizes
// just below and above it, and so on, with the smallest answers the least
// popular; the largest answer is moved up to bigRank. Tying popularity to
// size this way, rather than drawing it, keeps the bytes served per request
// the same from seed to seed, so the latency figures compare across seeds.
func popularityOrder(sizes []int) []int {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sizes[idx[a]] < sizes[idx[b]] })
	mid := (len(idx) - 1) / 2
	order := []int{idx[mid]}
	for d := 1; len(order) < len(idx); d++ {
		if mid-d >= 0 {
			order = append(order, idx[mid-d])
		}
		if mid+d < len(idx) {
			order = append(order, idx[mid+d])
		}
	}
	largest := idx[len(idx)-1]
	order = slices.DeleteFunc(order, func(i int) bool { return i == largest })
	return slices.Insert(order, min(bigRank, len(order)), largest)
}

// growReads is how many read-after-write queries follow each append: enough
// that a stream's 150 reads put 15 samples beyond the p90 tail.
const growReads = 6

// growOthers names the data sets the read-after-write queries pair an
// appended data set with: the next growReads in name order, cyclically.
// Fixing them keeps the cost of the reads the same from seed to seed.
func growOthers(names []string, appended string) []string {
	i := slices.Index(names, appended)
	var out []string
	for k := 1; k <= growReads; k++ {
		out = append(out, names[(i+k)%len(names)])
	}
	return out
}
