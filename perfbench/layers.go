package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/blocked"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/core/prefixsum"
	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/server"
	"rangecube/internal/telemetry"
	"rangecube/internal/wal"
)

// ledgerRow charges part of the handler's time per read item to a layer.
// The rows, the residual included, add up to server.handler_ns_per_item.
type ledgerRow struct {
	Layer     string  `json:"layer"`
	NsPerItem float64 `json:"ns_per_item"`
	Share     float64 `json:"share_of_handler"`
}

// structures are the benchmark's own copies of the engines the server
// builds, over the same seed cells and with the same options, so each
// layer can be timed by calling its public functions.
type structures struct {
	cells  *ndarray.Array[int64]
	ps     *prefixsum.IntArray
	bl     *blocked.IntArray
	mx, mn *maxtree.Tree[int64]
}

// sink keeps the compiler from dropping timed calls whose results are
// otherwise unused.
var sink int64

// layerOrder is the order in which an item's engine calls are made; the
// server computes a sum's §11 bounds before the exact answer.
var layerOrder = []string{"blocked.bounds", "prefixsum.sum", "maxtree.max", "maxtree.min"}

// opLayers are the engine calls the server makes for each op.
var opLayers = map[string][]string{
	"sum": {"blocked.bounds", "prefixsum.sum"},
	"avg": {"prefixsum.sum"},
	"max": {"maxtree.max"},
	"min": {"maxtree.min"},
}

func (s *structures) call(name string, r ndarray.Region, c *metrics.Counter) {
	switch name {
	case "blocked.bounds":
		lo, hi := blocked.Bounds(s.bl, r, c)
		sink += lo + hi
	case "prefixsum.sum":
		sink += s.ps.Sum(r, c)
	case "maxtree.max":
		_, v, _ := s.mx.MaxIndex(r, c)
		sink += v
	case "maxtree.min":
		_, v, _ := s.mn.MaxIndex(r, c)
		sink += v
	}
}

// tracedRun is the --trace 1 run: write-free rounds without and with
// client spans, for the tracing overhead; the handler replay and layer
// ledger; then the write phase and the write-path layers.
func (g *loadGen) tracedRun(rep *report, c *cube.Cube, seedCube func() *cube.Cube, srv *server.Server, secs float64, tmp string) error {
	span := func(share float64) time.Duration { return time.Duration(share * secs * float64(time.Second)) }
	var plain, traced []int64
	for i := 0; i < 4; i++ {
		st := g.run(phase{dur: span(0.15), traced: i%2 == 1})
		rep.count(g, st)
		if i%2 == 1 {
			traced = append(traced, st.lat...)
		} else {
			plain = append(plain, st.lat...)
		}
	}
	handlerUS, st, err := g.ledger(rep, c, seedCube, srv)
	if err != nil {
		return err
	}

	before, err := g.scrape()
	if err != nil {
		return err
	}
	mix := g.run(phase{dur: span(0.35), writer: true, traced: true})
	mix.bad += g.check(&mix)
	rep.count(g, mix)
	after, err := g.scrape()
	if err != nil {
		return err
	}

	rep.add("http.overhead_us", "us", pct(plain, 0.5)/1e3-handlerUS)
	rep.add("server.read_stall_us", "us", (pct(mix.lat, 0.5)-pct(traced, 0.5))/1e3)
	rep.add("bench.trace_overhead_pct", "%", (pct(traced, 0.5)/pct(plain, 0.5)-1)*100)

	ws := g.writes[mix.w0:mix.w1]
	acked, _, late := writeStats(ws)
	var qwait, commit []int64
	seqs := map[uint64]bool{}
	for _, w := range ws {
		if w.ok {
			qwait = append(qwait, w.queueWait)
			commit = append(commit, w.commit)
			seqs[w.seq] = true
		}
	}
	rep.add("ingest.queue_wait_us_p50", "us", pct(qwait, 0.5)/1e3)
	rep.add("ingest.commit_us_p50", "us", pct(commit, 0.5)/1e3)
	rep.add("ingest.commit_us_p99", "us", pct(commit, 0.99)/1e3)
	rep.add("ingest.updates_per_group", "count", float64(acked)/float64(max(len(seqs), 1)))
	rep.add("bench.late_us_p99", "us", pct(late, 0.99)/1e3)
	rep.notes["samples"] = map[string]int{
		"plain_reads": len(plain), "traced_reads": len(traced),
		"mixed_reads": len(mix.lat), "writes": len(ws), "groups": len(seqs),
	}
	return g.writeLayers(rep, st, before, after, acked, tmp)
}

// replayRequest builds the request a read would send, for ServeHTTP.
func replayRequest(rq *readReq) (*http.Request, *httptest.ResponseRecorder) {
	var r *http.Request
	if rq.body != nil {
		r = httptest.NewRequest(http.MethodPost, "/query/batch", bytes.NewReader(rq.body))
	} else {
		r = httptest.NewRequest(http.MethodGet, rq.url, nil)
	}
	rec := httptest.NewRecorder()
	rec.Body = bytes.NewBuffer(make([]byte, 0, 128<<10))
	return r, rec
}

// replayAll sends each request through h with no socket and returns the
// time ServeHTTP took for all of them.
func replayAll(h http.Handler, reqs []readReq, each func(rq *readReq, rec *httptest.ResponseRecorder)) time.Duration {
	rs := make([]*http.Request, len(reqs))
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		rs[i], recs[i] = replayRequest(&reqs[i])
	}
	t0 := time.Now()
	for i := range rs {
		h.ServeHTTP(recs[i], rs[i])
	}
	d := time.Since(t0)
	if each != nil {
		for i := range reqs {
			each(&reqs[i], recs[i])
		}
	}
	return d
}

// ledger replays a sample of the workload's requests through the
// handler, against variants without telemetry or tracing in interleaved
// rounds, counts allocations, and times each item's layer calls on the
// benchmark's own structures. It returns the handler's time per request
// in µs and the structures, for the write path.
func (g *loadGen) ledger(rep *report, c *cube.Cube, seedCube func() *cube.Cube, srv *server.Server) (float64, *structures, error) {
	batch := g.w.batch > 0
	n := 1024
	if batch {
		n = 64
	}
	sample := g.reqs[:min(n, len(g.reqs))]
	items := 0
	for _, rq := range sample {
		items += len(rq.idx)
	}

	type variant struct {
		name string
		h    http.Handler
	}
	vs := []variant{{"default", srv.Handler()}}
	for _, v := range []struct {
		name string
		mod  func(*server.Options)
	}{
		{"no-telemetry", func(o *server.Options) { o.NoTelemetry = true }},
		{"no-trace", func(o *server.Options) { o.TraceSample = -1 }},
	} {
		o := g.w.serverOptions("")
		o.WALPath, o.SnapshotPath = "", ""
		v.mod(&o)
		s, err := server.NewWithOptions(seedCube(), o)
		if err != nil {
			return 0, nil, err
		}
		defer s.Close()
		vs = append(vs, variant{v.name, s.Handler()})
	}
	times := map[string][]float64{}
	respBytes := 0
	for round := 0; round < 15; round++ {
		for k := range vs {
			v := vs[(round+k)%len(vs)]
			var each func(*readReq, *httptest.ResponseRecorder)
			if round == 0 {
				each = func(rq *readReq, rec *httptest.ResponseRecorder) {
					rep.attempted += len(rq.idx)
					rep.failed += g.chk.judge(rec.Code, rec.Body.Bytes(), rq.idx, batch)
					if v.name == "default" {
						respBytes += rec.Body.Len()
					}
				}
			}
			times[v.name] = append(times[v.name], replayAll(v.h, sample, each).Seconds())
		}
	}
	handler := median(times["default"])
	handlerNS := handler / float64(items) * 1e9
	handlerUS := handler / float64(len(sample)) * 1e6
	rep.add("server.handler_us_per_req", "us", handlerUS)
	rep.add("server.handler_ns_per_item", "ns", handlerNS)
	rep.add("server.resp_bytes_per_item", "bytes", float64(respBytes)/float64(items))
	rep.add("telemetry.overhead_pct", "%", (handler/median(times["no-telemetry"])-1)*100)
	rep.add("trace.overhead_pct", "%", (handler/median(times["no-trace"])-1)*100)

	// Allocations: the garbage collector is off so pooled buffers stay
	// warm, and the median over requests keeps out the rare request the
	// server's tracer samples.
	prev := debug.SetGCPercent(-1)
	replayAll(vs[0].h, sample, nil)
	var allocReq, allocItem []float64
	var m0, m1 runtime.MemStats
	for i := range sample {
		r, rec := replayRequest(&sample[i])
		runtime.ReadMemStats(&m0)
		vs[0].h.ServeHTTP(rec, r)
		runtime.ReadMemStats(&m1)
		a := float64(m1.Mallocs - m0.Mallocs)
		allocReq = append(allocReq, a)
		allocItem = append(allocItem, a/float64(len(sample[i].idx)))
	}
	debug.SetGCPercent(prev)
	runtime.GC()
	rep.add("server.allocs_per_req", "count", median(allocReq))
	rep.add("server.allocs_per_item", "count", median(allocItem))

	opts := g.w.serverOptions("")
	st := &structures{cells: c.Data()}
	st.ps = prefixsum.BuildInt(st.cells)
	st.bl = blocked.BuildInt(st.cells, opts.BlockSize)
	st.mx = maxtree.Build(st.cells.Clone(), opts.Fanout)
	st.mn = maxtree.BuildMin(st.cells.Clone(), opts.Fanout)
	rep.add("prefixsum.bytes", "bytes", float64(st.ps.Size()*8))
	rep.add("blocked.aux_bytes", "bytes", float64(st.bl.AuxSize()*8))
	rep.add("maxtree.nodes_total", "count", float64(st.mx.Nodes()+st.mn.Nodes()))

	// The sampled items, parsed once; own[L] lists the items whose op the
	// server answers with layer L.
	var idx []int
	for _, rq := range sample {
		idx = append(idx, rq.idx...)
	}
	sels := make([][]cube.Selector, len(idx))
	regions := make([]ndarray.Region, len(idx))
	own := map[string][]int{}
	for k, i := range idx {
		sels[k] = cubeSelectors(g.chk.items[i].sel)
		r, err := c.Region(sels[k]...)
		if err != nil {
			return 0, nil, fmt.Errorf("item %d selectors %v: %w", i, g.chk.items[i].sel, err)
		}
		regions[k] = r
		for _, name := range opLayers[g.chk.items[i].op] {
			own[name] = append(own[name], k)
		}
	}
	g.itemSpans(c, st, sample, sels, vs[0].h)

	// Counted accesses repeat exactly; times are the median of nine passes,
	// each timing one loop per layer, since a clock read costs as much as a
	// prefix-sum lookup.
	accesses := map[string]float64{}
	for _, name := range layerOrder {
		var k metrics.Counter
		for _, r := range regions {
			st.call(name, r, &k)
		}
		accesses[name] = float64(k.Total()) / float64(len(regions))
	}
	loop := func(name string, ks []int) time.Duration {
		t0 := time.Now()
		for _, k := range ks {
			st.call(name, regions[k], nil)
		}
		return time.Since(t0)
	}
	all := make([]int, len(regions))
	for k := range all {
		all[k] = k
	}
	perCall := map[string][]float64{}
	perItem := map[string][]float64{} // the ledger: a layer's time on the items that use it, per item
	var regionNS []float64
	for pass := 0; pass < 9; pass++ {
		t0 := time.Now()
		for k := range sels {
			r, _ := c.Region(sels[k]...)
			sink += int64(len(r))
		}
		regionNS = append(regionNS, float64(time.Since(t0).Nanoseconds())/float64(len(sels)))
		// Two sweeps, so neither loop of a layer runs right after the other
		// on the same cache lines.
		for _, name := range layerOrder {
			perCall[name] = append(perCall[name], float64(loop(name, all).Nanoseconds())/float64(len(all)))
		}
		for _, name := range layerOrder {
			perItem[name] = append(perItem[name], float64(loop(name, own[name]).Nanoseconds())/float64(len(all)))
		}
	}
	rep.add("cube.region_ns", "ns", median(regionNS))
	rep.add("prefixsum.sum_ns", "ns", median(perCall["prefixsum.sum"]))
	rep.add("prefixsum.cells", "count", accesses["prefixsum.sum"])
	rep.add("blocked.bounds_ns", "ns", median(perCall["blocked.bounds"]))
	rep.add("blocked.bounds_cells", "count", accesses["blocked.bounds"])
	rep.add("maxtree.max_ns", "ns", median(perCall["maxtree.max"]))
	rep.add("maxtree.min_ns", "ns", median(perCall["maxtree.min"]))
	rep.add("maxtree.nodes", "count", (accesses["maxtree.max"]+accesses["maxtree.min"])/2)

	rows := []ledgerRow{{Layer: "cube.region", NsPerItem: median(regionNS)}}
	attributed := rows[0].NsPerItem
	for _, name := range layerOrder {
		if len(own[name]) > 0 {
			v := median(perItem[name])
			rows = append(rows, ledgerRow{Layer: name, NsPerItem: v})
			attributed += v
		}
	}
	rows = append(rows, ledgerRow{Layer: "server.residual", NsPerItem: handlerNS - attributed})
	for i := range rows {
		rows[i].Share = rows[i].NsPerItem / handlerNS
	}
	rep.ledger = rows
	rep.add("server.engine_share", "ratio", attributed/handlerNS)
	rep.add("server.residual_ns_per_item", "ns", handlerNS-attributed)
	rep.add("bench.span_ns", "ns", spanCost())
	return handlerUS, st, nil
}

// cubeSelectors parses the wire grammar the way the server does.
func cubeSelectors(sel map[string]string) []cube.Selector {
	conv := func(s string) any {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
		return s
	}
	out := make([]cube.Selector, 0, len(sel))
	for name, spec := range sel {
		lo, hi, isRange := strings.Cut(spec, "..")
		switch {
		case isRange:
			out = append(out, cube.Between(name, conv(lo), conv(hi)))
		case spec == "*":
			out = append(out, cube.All(name))
		default:
			out = append(out, cube.Eq(name, conv(spec)))
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// itemSpans records the span tree of the first sampled requests, up to
// 256 items: the ServeHTTP replay, then each item's region parse and
// engine calls, the ones its op uses under "item" and the rest under
// "probe". Each span's duration includes one span's recording cost.
func (g *loadGen) itemSpans(c *cube.Cube, st *structures, sample []readReq, sels [][]cube.Selector, h http.Handler) {
	l := g.spans
	k := 0
	for j := range sample {
		if k >= 256 {
			return
		}
		rq := &sample[j]
		tr := l.newID()
		r, rec := replayRequest(rq)
		start := time.Now()
		h.ServeHTTP(rec, r)
		last := time.Now()
		l.add(tr, 0, tr, "server.ServeHTTP", start, last, len(rq.idx))
		for _, i := range rq.idx {
			itemID, probeID := l.newID(), l.newID()
			t0 := time.Now()
			region, _ := c.Region(sels[k]...)
			k++
			last = time.Now()
			l.add(tr, 0, itemID, "cube.region", t0, last, 0)
			ownLayers := opLayers[g.chk.items[i].op]
			timed := func(name string, parent uint64) {
				st.call(name, region, nil)
				t := time.Now()
				l.add(tr, 0, parent, name, last, t, 0)
				last = t
			}
			for _, name := range ownLayers {
				timed(name, itemID)
			}
			l.add(tr, itemID, tr, "item", t0, last, 1)
			p0 := last
			for _, name := range layerOrder {
				if !contains(ownLayers, name) {
					timed(name, probeID)
				}
			}
			l.add(tr, probeID, tr, "probe", p0, last, 0)
		}
		l.add(tr, tr, 0, "ledger.request", start, last, len(rq.idx))
	}
}

// spanCost is what recording one span costs: two clock reads and an
// append. Every layer time in the ledger includes it once.
func spanCost() float64 {
	l := newSpanLog()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		l.add(1, 0, 1, "calibrate", a, time.Now(), 0)
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// writeLayers times the write path from outside: each committed group,
// coalesced as the server coalesces it, is appended to a scratch WAL in
// the server's directory tree and applied to copies of the structures.
// The WAL and snapshot counters come from /metrics deltas over the mixed
// phase; a server without a WAL reports fsync and snapshot times from the
// scratch log and a timed snapshot of its cells instead.
func (g *loadGen) writeLayers(rep *report, st *structures, before, after promText, acked int, tmp string) error {
	groups, _ := g.groups()
	seqs := make([]uint64, 0, len(groups))
	for s := range groups {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	l, err := wal.Create(filepath.Join(tmp, "scratch.wal"), nil)
	if err != nil {
		return err
	}
	defer l.Close()
	var fsync telemetry.Histogram
	l.SetMetrics(&wal.Metrics{FsyncSeconds: &fsync})
	var tWAL, tSum, tBlk, tMax []float64
	for k, s := range seqs {
		cells := coalesce(st.cells, groups[s])
		wups := make([]wal.Update, len(cells))
		bups := make([]batchsum.IntUpdate, len(cells))
		for i, u := range cells {
			wups[i] = wal.Update{Coords: u.Coords, Delta: u.Delta}
			bups[i] = batchsum.IntUpdate{Coords: u.Coords, Delta: u.Delta}
		}
		tr := g.spans.newID()
		t0 := time.Now()
		if err := l.Append(wal.Batch{Seq: uint64(k + 1), Updates: wups}); err != nil {
			return fmt.Errorf("scratch WAL: %w", err)
		}
		t1 := time.Now()
		batchsum.ApplyInt(st.ps, bups, nil)
		t2 := time.Now()
		batchsum.ApplyBlockedInt(st.bl, bups, nil) // also adds the deltas to st.cells
		t3 := time.Now()
		mups := make([]maxtree.PointUpdate[int64], len(cells))
		for i, u := range cells {
			mups[i] = maxtree.PointUpdate[int64]{Coords: u.Coords, Value: st.cells.At(u.Coords...)}
		}
		st.mx.BatchUpdate(mups, nil)
		st.mn.BatchUpdate(mups, nil)
		t4 := time.Now()
		g.spans.add(tr, 0, tr, "wal.append", t0, t1, len(cells))
		g.spans.add(tr, 0, tr, "batchsum.apply", t1, t2, len(cells))
		g.spans.add(tr, 0, tr, "batchsum.apply_blocked", t2, t3, len(cells))
		g.spans.add(tr, 0, tr, "maxtree.update", t3, t4, len(cells))
		g.spans.add(tr, tr, 0, "write.group", t0, t4, len(cells))
		tWAL = append(tWAL, us(t1.Sub(t0)))
		tSum = append(tSum, us(t2.Sub(t1)))
		tBlk = append(tBlk, us(t3.Sub(t2)))
		tMax = append(tMax, us(t4.Sub(t3)))
	}
	rep.add("wal.append_us", "us", median(tWAL))
	rep.add("batchsum.apply_us", "us", median(tSum))
	rep.add("batchsum.apply_blocked_us", "us", median(tBlk))
	rep.add("maxtree.update_us", "us", median(tMax))

	fsyncs := after.delta(before, "cube_wal_fsync_seconds_count")
	fsyncP50 := histQuantile(before, after, "cube_wal_fsync_seconds", 0.5) * 1e6
	if fsyncs == 0 {
		fsyncP50 = fsync.Snapshot().Quantile(0.5) / 1e3
	}
	rep.add("wal.fsync_us_p50", "us", fsyncP50)
	rep.add("wal.fsyncs_per_update", "count", fsyncs/float64(max(acked, 1)))
	rep.add("wal.bytes_per_update", "bytes", after.delta(before, "cube_wal_append_bytes_total")/float64(max(acked, 1)))
	snaps := after.delta(before, "cube_wal_compactions_total")
	rep.add("persist.snapshots", "count", snaps)
	snapMS := histQuantile(before, after, "cube_snapshot_seconds", 0.5) * 1e3
	if snaps == 0 {
		var ts []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			err := persist.WriteFileAtomic(filepath.Join(tmp, "scratch.snap"), func(w io.Writer) error {
				return persist.WriteSnapshot(w, 0, st.cells)
			})
			if err != nil {
				return fmt.Errorf("scratch snapshot: %w", err)
			}
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		snapMS = median(ts)
	}
	rep.add("persist.snapshot_ms_p50", "ms", snapMS)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// coalesce merges a group's updates per cell, as the commit path does.
func coalesce(a *ndarray.Array[int64], ups []update) []update {
	at := map[int]int{}
	var out []update
	for _, u := range ups {
		off := a.Offset(u.Coords...)
		if k, ok := at[off]; ok {
			out[k].Delta += u.Delta
			continue
		}
		at[off] = len(out)
		out = append(out, u)
	}
	return out
}

// promText is a /metrics scrape: sample value by series, labels included.
type promText map[string]float64

func (g *loadGen) scrape() (promText, error) {
	b, err := g.get("/metrics")
	if err != nil {
		return nil, err
	}
	m := promText{}
	for _, line := range strings.Split(string(b), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, nil
}

func (p promText) delta(before promText, series string) float64 { return p[series] - before[series] }

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating inside the covering bucket.
func histQuantile(before, after promText, name string, q float64) float64 {
	prefix := name + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v - before[k]})
			}
		}
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prevCum {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			return prevLE + (rank-prevCum)/(b.cum-prevCum)*(b.le-prevLE)
		}
		prevLE, prevCum = b.le, b.cum
	}
	return prevLE
}
