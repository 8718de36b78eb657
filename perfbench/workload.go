package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/server"
)

// workload is one traffic mix. A run has a write-free read phase and a
// write phase in which the paced writer runs beside one closed-loop
// reader. The read-only workloads take their read figures from the first
// phase, so they never see a commit; mixed-durable spends the whole run in
// the write phase and takes its read figures from there. The reader keeps
// the write phase from idling the CPUs between writes: on a virtual
// machine, waking an idle CPU for each write adds host noise that says
// nothing about the server.
type workload struct {
	name    string
	dims    func() []*cube.Dimension
	fill    func(rng *rand.Rand, c *cube.Cube)
	batch   int // items per POST /query/batch; 0 sends one GET /query per item
	pool    int // distinct read items, each with an oracle answer
	mix     []opShare
	region  func(rng *rand.Rand, shape []int) ndarray.Region
	durable bool
	// writeShare is the part of an untraced run spent in the write phase;
	// at 1 the read figures come from that phase too.
	writeShare float64
	writeRate  int // /update requests per second
	writeSize  int // point updates per /update request
	maxDelta   int64
}

type opShare struct {
	op     string
	weight int
}

var workloads = []*workload{
	{
		name: "sum-batch",
		dims: func() []*cube.Dimension {
			return []*cube.Dimension{cube.NewIntDimension("x", 0, 1023), cube.NewIntDimension("y", 0, 1023)}
		},
		fill:       uniformFill(1000),
		batch:      256,
		pool:       4096,
		mix:        []opShare{{"sum", 1}},
		region:     uniformRegion,
		writeShare: 0.67,
		writeRate:  200,
		writeSize:  8,
		maxDelta:   100,
	},
	{
		name:       "olap-get",
		dims:       insuranceDims,
		fill:       insuranceFill(300000),
		pool:       4096,
		mix:        []opShare{{"sum", 40}, {"avg", 10}, {"max", 25}, {"min", 25}},
		region:     olapRegion,
		writeShare: 0.4,
		writeRate:  400,
		writeSize:  8,
		maxDelta:   500,
	},
	{
		name: "mixed-durable",
		dims: func() []*cube.Dimension {
			return []*cube.Dimension{cube.NewIntDimension("x", 0, 255), cube.NewIntDimension("y", 0, 255)}
		},
		fill:       uniformFill(1000),
		batch:      32,
		pool:       2048,
		mix:        []opShare{{"sum", 3}, {"max", 1}},
		region:     uniformRegion,
		durable:    true,
		writeShare: 1,
		writeRate:  400,
		writeSize:  8,
		maxDelta:   100,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// serverOptions mirrors cubeserver's flag defaults, so the benchmark
// measures what ships; a durable workload adds the WAL and snapshot of a
// durable deployment under dir.
func (w *workload) serverOptions(dir string) server.Options {
	o := server.Options{
		BlockSize:        10,
		Fanout:           4,
		SumEngine:        "prefixsum",
		CompactEvery:     64,
		MaxInflight:      64,
		QueryTimeout:     10 * time.Second,
		CacheSize:        0,
		Metrics:          true,
		TraceSample:      0.01,
		TraceStore:       256,
		SlowQuery:        250 * time.Millisecond,
		IngestQueue:      256,
		IngestDurability: "sync",
		DegradedProbe:    time.Second,
		ShardTimeout:     2 * time.Second,
		ShardHedgeAfter:  100 * time.Millisecond,
		ShardProbe:       time.Second,
		Logf:             func(string, ...any) {},
	}
	if w.durable {
		o.WALPath = dir + "/updates.wal"
		o.SnapshotPath = dir + "/cube.snap"
	}
	return o
}

// optionStamp is the printable part of the server options.
func (w *workload) optionStamp() map[string]any {
	o := w.serverOptions("<tmp>")
	return map[string]any{
		"BlockSize": o.BlockSize, "Fanout": o.Fanout, "SumEngine": o.SumEngine,
		"MaxInflight": o.MaxInflight, "QueryTimeout": o.QueryTimeout.String(), "CacheSize": o.CacheSize,
		"Metrics": o.Metrics, "TraceSample": o.TraceSample, "SlowQuery": o.SlowQuery.String(),
		"IngestQueue": o.IngestQueue, "IngestDurability": o.IngestDurability,
		"WAL": o.WALPath != "", "Snapshot": o.SnapshotPath != "", "CompactEvery": o.CompactEvery,
	}
}

func uniformFill(maxVal int) func(*rand.Rand, *cube.Cube) {
	return func(rng *rand.Rand, c *cube.Cube) {
		d := c.Data().Data()
		for i := range d {
			d[i] = int64(rng.Intn(maxVal))
		}
	}
}

// uniformRegion draws each side as the sorted pair of two uniform ranks.
func uniformRegion(rng *rand.Rand, shape []int) ndarray.Region {
	r := make(ndarray.Region, len(shape))
	for i, n := range shape {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		r[i] = ndarray.Range{Lo: a, Hi: b}
	}
	return r
}

var states = []string{
	"AK", "AL", "AR", "AZ", "CA", "CO", "CT", "DE", "FL", "GA",
	"HI", "IA", "ID", "IL", "IN", "KS", "KY", "LA", "MA", "MD",
	"ME", "MI", "MN", "MO", "MS", "MT", "NC", "ND", "NE", "NH",
	"NJ", "NM", "NV", "NY", "OH", "OK", "OR", "PA", "RI", "SC",
	"SD", "TN", "TX", "UT", "VA", "VT", "WA", "WI", "WV", "WY",
}

// insuranceDims is the paper's §1 running example, with categorical values
// in the sorted order cubeserver infers from a CSV.
func insuranceDims() []*cube.Dimension {
	return []*cube.Dimension{
		cube.NewIntDimension("age", 1, 100),
		cube.NewIntDimension("year", 1987, 1996),
		cube.NewCategoryDimension("state", states...),
		cube.NewCategoryDimension("type", "auto", "health", "home"),
	}
}

// insuranceFill aggregates cubegen-style records: ages cluster around 40
// and revenue is heavy-tailed.
func insuranceFill(rows int) func(*rand.Rand, *cube.Cube) {
	return func(rng *rand.Rand, c *cube.Cube) {
		a := c.Data()
		for i := 0; i < rows; i++ {
			age := rng.Intn(100)
			if rng.Intn(2) == 0 {
				age = 24 + rng.Intn(40)
			}
			rev := int64(50 + rng.Intn(200))
			if rng.Intn(20) == 0 {
				rev *= 10
			}
			co := []int{age, rng.Intn(10), rng.Intn(len(states)), rng.Intn(3)}
			a.Set(a.At(co...)+rev, co...)
		}
	}
}

// olapRegion selects each dimension whole, at one value or over a range.
func olapRegion(rng *rand.Rand, shape []int) ndarray.Region {
	r := make(ndarray.Region, len(shape))
	for i, n := range shape {
		switch p := rng.Intn(100); {
		case p < 25:
			r[i] = ndarray.Range{Lo: 0, Hi: n - 1}
		case p < 45:
			v := rng.Intn(n)
			r[i] = ndarray.Range{Lo: v, Hi: v}
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			if a > b {
				a, b = b, a
			}
			r[i] = ndarray.Range{Lo: a, Hi: b}
		}
	}
	return r
}

// item is one range query of the read pool: what goes on the wire, the
// rank-domain region it selects, and its answer over the seed cells.
type item struct {
	op     string
	sel    map[string]string
	region ndarray.Region
	sum    int64 // seed sum over the region (sum, avg)
	ext    int64 // seed max or min over the region (max, min)
}

// selectors renders a region in the wire grammar: "*" for a whole
// dimension, one value, or "lo..hi".
func selectors(dims []*cube.Dimension, r ndarray.Region) map[string]string {
	sel := make(map[string]string, len(dims))
	for i, d := range dims {
		switch {
		case r[i].Lo == 0 && r[i].Hi == d.Size()-1:
			sel[d.Name()] = "*"
		case r[i].Lo == r[i].Hi:
			sel[d.Name()] = d.ValueAt(r[i].Lo)
		default:
			sel[d.Name()] = d.ValueAt(r[i].Lo) + ".." + d.ValueAt(r[i].Hi)
		}
	}
	return sel
}

// makePool draws the read items and their oracle answers from the seed
// cells with internal/naive.
func (w *workload) makePool(rng *rand.Rand, dims []*cube.Dimension, cells *ndarray.Array[int64]) []item {
	total := 0
	for _, m := range w.mix {
		total += m.weight
	}
	items := make([]item, w.pool)
	for i := range items {
		k := rng.Intn(total)
		op := w.mix[0].op
		for _, m := range w.mix {
			if k < m.weight {
				op = m.op
				break
			}
			k -= m.weight
		}
		r := w.region(rng, cells.Shape())
		items[i] = item{op: op, sel: selectors(dims, r), region: r}
	}
	parallelDo(len(items), func(i int) {
		it := &items[i]
		switch it.op {
		case "sum", "avg":
			it.sum = naive.SumInt64(cells, it.region, nil)
		case "max":
			_, it.ext, _ = naive.Max(cells, it.region, nil)
		case "min":
			_, it.ext, _ = naive.Min(cells, it.region, nil)
		}
	})
	return items
}

// readReq is one prepared read request: a batch body or a GET URL.
type readReq struct {
	idx  []int
	body []byte
	url  string
}

type wireQuery struct {
	Op     string            `json:"op"`
	Select map[string]string `json:"select"`
}

// makeRequests spreads the pool over prepared requests: batches of w.batch
// items, or one GET per item.
func (w *workload) makeRequests(items []item) []readReq {
	if w.batch == 0 {
		reqs := make([]readReq, len(items))
		for i := range items {
			reqs[i] = readReq{idx: []int{i}, url: getURL(items[i])}
		}
		return reqs
	}
	var reqs []readReq
	for lo := 0; lo+w.batch <= len(items); lo += w.batch {
		q := make([]wireQuery, w.batch)
		idx := make([]int, w.batch)
		for k := range q {
			idx[k] = lo + k
			q[k] = wireQuery{Op: items[lo+k].op, Select: items[lo+k].sel}
		}
		body, err := json.Marshal(q)
		if err != nil {
			panic(err) // a map of strings always encodes
		}
		reqs = append(reqs, readReq{idx: idx, body: body})
	}
	return reqs
}

func getURL(it item) string {
	v := url.Values{}
	v.Set("op", it.op)
	names := make([]string, 0, len(it.sel))
	for n := range it.sel {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if it.sel[n] != "*" {
			v.Set(n, it.sel[n])
		}
	}
	return "/query?" + v.Encode()
}

// update is one point update sent to /update.
type update struct {
	Coords []int `json:"coords"`
	Delta  int64 `json:"delta"`
}

// makeUpdates draws the writer's stream: uniform cells, positive deltas,
// so every max over a region can only grow.
func (w *workload) makeUpdates(rng *rand.Rand, shape []int, n int) []update {
	ups := make([]update, n)
	for i := range ups {
		co := make([]int, len(shape))
		for j, s := range shape {
			co[j] = rng.Intn(s)
		}
		ups[i] = update{Coords: co, Delta: 1 + rng.Int63n(w.maxDelta)}
	}
	return ups
}

// rankOf maps a rendered dimension value back to its rank.
func rankOf(d *cube.Dimension, v string) (int, error) {
	if n, err := strconv.Atoi(v); err == nil {
		if r, err := d.Rank(n); err == nil {
			return r, nil
		}
	}
	r, err := d.Rank(v)
	if err != nil {
		return 0, fmt.Errorf("value %q of %s: %w", v, d.Name(), err)
	}
	return r, nil
}
