package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/server"
)

// A run builds its server at least minSetups times and until setupBudget
// has passed, at most maxSetups times; setup_s is the median and the last
// server serves the traffic.
const (
	minSetups   = 7
	maxSetups   = 25
	setupBudget = time.Second
)

type metric struct {
	name  string
	unit  string
	value float64
}

type report struct {
	attempted, failed int
	metrics           []metric
	notes             map[string]any
	ledger            []ledgerRow
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// count adds a phase's read items and the writes it sent to the totals.
func (r *report) count(g *loadGen, st phaseStats) {
	r.attempted += st.items + st.w1 - st.w0
	r.failed += st.bad
	for _, w := range g.writes[st.w0:st.w1] {
		if !w.ok {
			r.failed++
		}
	}
}

// progress notes a finished stage of the run on standard error.
func progress(start time.Time, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s\n", time.Since(start).Seconds(), fmt.Sprintf(format, args...))
}

func execute(w *workload, seed int64, secs float64, traced bool, spansPath string) (*report, error) {
	began := time.Now()
	root := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	seedCube := func() *cube.Cube {
		c := cube.New(w.dims()...)
		w.fill(rand.New(rand.NewSource(seed)), c)
		return c
	}
	client := newClient(2)
	defer client.CloseIdleConnections()

	// Set-up: seeded cells to a server that answers on its listener.
	var srv *server.Server
	var ts *httptest.Server
	var setups []float64
	setupStart := time.Now()
	for k := 0; k < maxSetups && (k < minSetups || time.Since(setupStart) < setupBudget); k++ {
		if srv != nil {
			ts.Close()
			srv.Close()
		}
		c := seedCube()
		dir := filepath.Join(tmp, fmt.Sprintf("server%d", k))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := server.NewWithOptions(c, w.serverOptions(dir))
		if err != nil {
			return nil, fmt.Errorf("building the server: %w", err)
		}
		h := httptest.NewServer(s.Handler())
		g := &loadGen{client: client, base: h.URL}
		if _, err := g.get("/healthz"); err != nil {
			h.Close()
			s.Close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		srv, ts = s, h
	}
	defer srv.Close()
	defer ts.Close()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMiB := float64(ms.HeapAlloc) / (1 << 20)

	progress(began, "%d set-ups, median %.4fs", len(setups), median(setups))

	// Inputs and their oracle answers.
	c := seedCube()
	dims := w.dims()
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	items := w.makePool(rng, dims, c.Data())
	g := &loadGen{
		w: w, base: ts.URL, client: client, seed: seed,
		reqs: w.makeRequests(items),
		chk:  newChecker(dims, items, c.Data()),
		ups:  w.makeUpdates(rng, c.Shape(), w.writeRate*w.writeSize*(int(secs)+3)),
	}
	rep := &report{notes: map[string]any{}}
	progress(began, "%d pool items with oracle answers", len(items))

	warm := phase{dur: 500 * time.Millisecond, writer: w.writeShare >= 1 && !traced}
	wst := g.run(warm)
	wst.bad += g.check(&wst)
	rep.count(g, wst)

	var readSt, mixSt phaseStats
	if traced {
		g.spans = newSpanLog()
		if err := g.tracedRun(rep, c, seedCube, srv, secs, tmp); err != nil {
			return nil, err
		}
	} else {
		mixDur := time.Duration(secs * w.writeShare * float64(time.Second))
		if readDur := time.Duration(secs*float64(time.Second)) - mixDur; readDur > 0 {
			readSt = g.run(phase{dur: readDur})
			rep.count(g, readSt)
		}
		mixSt = g.run(phase{dur: mixDur, writer: true})
		mixSt.bad += g.check(&mixSt)
		rep.count(g, mixSt)
		if w.writeShare >= 1 {
			readSt = mixSt
		}
	}

	progress(began, "traffic done")
	fatt, fbad, err := g.finalCheck(seedCube().Data(), dims, rng)
	if err != nil {
		return nil, err
	}
	rep.attempted += fatt
	rep.failed += fbad
	rep.notes["final_check"] = map[string]int{"attempted": fatt, "failed": fbad}
	progress(began, "final check done")
	rep.notes["fail_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))

	if traced {
		hdr := map[string]any{"workload": w.name, "seed": seed}
		byName, err := g.spans.write(spansPath, hdr)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rep.notes["spans"] = map[string]any{"path": spansPath, "count": len(g.spans.spans), "self_by_name": byName}
		return rep, nil
	}

	// A write window holds at least a thousand writes, so its p99 has ten
	// samples beyond it.
	ws := g.writes[mixSt.w0:mixSt.w1]
	acked, _, late := writeStats(ws)
	rw := readWindows(readSt, window)
	ww := writeWindows(ws, mixSt, max(window, time.Second*1000/time.Duration(w.writeRate)))
	// Rates and medians take the median window. A p99 takes the lower
	// quartile of its windows: the tail of the calmer windows, which every
	// periodic stall of the server still reaches, while a burst of outside
	// load that spoils a few windows does not move it.
	rep.add("read_qps", "1/s", quantileOf(rw, 0.5, func(w win) float64 { return w.Rate }))
	rep.add("read_p50_us", "us", quantileOf(rw, 0.5, func(w win) float64 { return w.P50 }))
	rep.add("read_p99_us", "us", quantileOf(rw, 0.25, func(w win) float64 { return w.P99 }))
	rep.add("write_ups", "1/s", float64(acked)/mixSt.elapsed.Seconds())
	rep.add("write_p50_us", "us", quantileOf(ww, 0.5, func(w win) float64 { return w.P50 }))
	rep.add("write_p99_us", "us", quantileOf(ww, 0.25, func(w win) float64 { return w.P99 }))
	rep.add("setup_s", "s", median(setups))
	rep.add("heap_mib", "MiB", heapMiB)
	rep.notes["samples"] = map[string]int{
		"read_requests": len(readSt.lat), "read_items": readSt.items,
		"write_requests": mixSt.w1 - mixSt.w0, "setups": len(setups),
	}
	rep.notes["write_late_us_p50_p99"] = []float64{pct(late, 0.5) / 1e3, pct(late, 0.99) / 1e3}
	rep.notes["read_windows"] = rw
	rep.notes["write_windows"] = ww
	rep.notes["setup_s_all"] = setups
	return rep, nil
}

// window is the length of the slices a measured phase is cut into. Each
// end-to-end figure is a quantile of its per-window values, so a burst of
// load from outside the benchmark moves at most the windows it overlaps.
const window = 2500 * time.Millisecond

// win is one window's figures: items or updates per second, and the
// latency percentiles in µs with their sample count.
type win struct {
	Rate float64 `json:"rate"`
	P50  float64 `json:"p50_us"`
	P99  float64 `json:"p99_us"`
	N    int     `json:"n"`
}

func newWin(lat []int64, done int, d time.Duration) win {
	return win{Rate: float64(done) / d.Seconds(), P50: pct(lat, 0.5) / 1e3, P99: pct(lat, 0.99) / 1e3, N: len(lat)}
}

// windowsOf cuts a phase into windows of d, the nearest whole number of
// them, or one window when shorter. A phase ends a little after its
// nominal length, so the last window is not dropped.
func windowsOf(elapsed, d time.Duration) (int, time.Duration) {
	n := int(math.Round(float64(elapsed) / float64(d)))
	if n < 1 {
		return 1, elapsed
	}
	return n, d
}

// readWindows buckets a phase's reads by completion time.
func readWindows(st phaseStats, d time.Duration) []win {
	n, d := windowsOf(st.elapsed, d)
	lats := make([][]int64, n)
	items := make([]int, n)
	for k, t := range st.done {
		i := min(int(t/d.Nanoseconds()), n-1)
		lats[i] = append(lats[i], st.lat[k])
		if st.lat[k] != math.MaxInt64 {
			items[i] += st.size[k]
		}
	}
	ws := make([]win, n)
	for i := range ws {
		ws[i] = newWin(lats[i], items[i], d)
	}
	return ws
}

// writeWindows buckets a phase's writes by due time.
func writeWindows(ws []writeRec, st phaseStats, d time.Duration) []win {
	n, d := windowsOf(st.elapsed, d)
	lats := make([][]int64, n)
	acked := make([]int, n)
	for _, w := range ws {
		i := min(int(w.due.Sub(st.start)/d), n-1)
		a, l, _ := writeStats([]writeRec{w})
		lats[i] = append(lats[i], l...)
		acked[i] += a
	}
	out := make([]win, n)
	for i := range out {
		out[i] = newWin(lats[i], acked[i], d)
	}
	return out
}

// quantileOf is the q-quantile of f over the windows, interpolated
// between the two nearest.
func quantileOf(ws []win, q float64, f func(win) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	sort.Float64s(xs)
	k := q * float64(len(xs)-1)
	lo := int(k)
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(k-float64(lo))
}

// writeStats returns the acknowledged updates, the latency of every write
// from its due time (a failed write is math.MaxInt64), and how late the
// writer sent each one after it could have.
func writeStats(ws []writeRec) (acked int, lat, late []int64) {
	for _, w := range ws {
		l := w.done.Sub(w.due).Nanoseconds()
		if w.ok {
			acked += len(w.ups)
		} else {
			l = math.MaxInt64
		}
		lat = append(lat, l)
		late = append(late, w.sent.Sub(w.ready).Nanoseconds())
	}
	return acked, lat, late
}

// finalCheck runs once the writer has drained: the full-cube sum must equal
// the seed total plus every acknowledged delta, and a sample of the pool
// is re-asked and judged against an oracle over the final cells.
func (g *loadGen) finalCheck(seed *ndarray.Array[int64], dims []*cube.Dimension, rng *rand.Rand) (attempted, bad int, err error) {
	final := naive.NewOracle(seed.Shape(), slices.Clone(seed.Data()))
	total := naive.SumInt64(seed, seed.Bounds(), nil)
	for _, w := range g.writes {
		if w.ok {
			for _, u := range w.ups {
				final.Add(u.Coords, u.Delta)
				total += u.Delta
			}
		}
	}
	if !slices.Equal(final.Cube().Data(), g.chk.cells.Data()) {
		return 0, 0, fmt.Errorf("the checker's replayed cells disagree with the oracle's")
	}
	attempted++
	body, err := g.get("/query?op=sum")
	var r wireResult
	if err != nil || json.Unmarshal(body, &r) != nil || r.Value != total {
		bad++
	}

	const sample = 256
	picked := make([]item, sample)
	for k := range picked {
		it := g.chk.items[rng.Intn(len(g.chk.items))]
		switch it.op {
		case "sum", "avg":
			it.sum = final.Sum(it.region)
		case "max":
			it.ext, _ = final.Max(it.region)
		case "min":
			it.ext, _ = final.Min(it.region)
		}
		picked[k] = it
	}
	chk := newChecker(dims, picked, final.Cube())
	var buf bytes.Buffer
	for _, rq := range g.w.makeRequests(picked) {
		status, body, err := g.do(&rq, &buf)
		attempted += len(rq.idx)
		if err != nil {
			bad += len(rq.idx)
			continue
		}
		bad += chk.judge(status, body, rq.idx, g.w.batch > 0)
	}
	return attempted, bad, nil
}

// pct is the nearest-rank q-quantile of ns.
func pct(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[min(max(k, 0), len(s)-1)])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parallelDo runs f(0..n-1) on GOMAXPROCS goroutines.
func parallelDo(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				f(i)
			}
		}(k)
	}
	wg.Wait()
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources under the working directory,
// which identifies the code measured even where no VCS is present.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
