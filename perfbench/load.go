package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// phase describes one stretch of traffic: one closed-loop reader,
// optionally beside the paced writer.
type phase struct {
	dur    time.Duration
	writer bool
	traced bool // record client spans for every eighth read
}

// phaseStats is what one phase measured.
type phaseStats struct {
	start   time.Time
	elapsed time.Duration
	lat     []int64 // per read request in ns; a failed request is math.MaxInt64
	done    []int64 // when each read request completed, in ns since start
	size    []int   // items in each read request
	items   int     // read items attempted
	bad     int     // read items failed, refused or judged wrong
	recs    []readRec
	w0, w1  int // the phase's writes are b.writes[w0:w1]
}

// writeRec is one /update request of the paced writer.
type writeRec struct {
	ups []update
	due time.Time // when the schedule called for it
	// ready is when it could first be sent: its due time, or the previous
	// write's completion when that came later.
	ready     time.Time
	sent      time.Time
	done      time.Time
	ok        bool
	seq       uint64
	queueWait int64 // ns, from the response
	commit    int64 // ns, from the response
}

type updateAck struct {
	Seq         uint64 `json:"seq"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
	CommitNS    int64  `json:"commit_ns"`
}

// loadGen drives a server over loopback HTTP.
type loadGen struct {
	w      *workload
	base   string
	client *http.Client
	reqs   []readReq
	chk    *checker
	spans  *spanLog
	seed   int64
	phases int

	ups    []update // the writer's update stream
	upNext int
	writes []writeRec    // every write, in send order; only the writer appends
	acked  atomic.Uint64 // highest seq acknowledged so far
	sent   atomic.Int64  // writes sent so far
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one read request and returns its status and body.
func (g *loadGen) do(rq *readReq, buf *bytes.Buffer) (int, []byte, error) {
	var resp *http.Response
	var err error
	if rq.body != nil {
		resp, err = g.client.Post(g.base+"/query/batch", "application/json", bytes.NewReader(rq.body))
	} else {
		resp, err = g.client.Get(g.base + rq.url)
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// run drives one phase to its end. While the writer runs, answers are kept
// for the post-run sweep; otherwise each is judged as it arrives against
// the state the last drained writes left.
func (g *loadGen) run(p phase) phaseStats {
	g.phases++
	start := time.Now()
	st := phaseStats{start: start, w0: len(g.writes)}
	deadline := start.Add(p.dur)
	var wg sync.WaitGroup
	if p.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.writer(start, deadline)
		}()
	}
	g.reader(p, deadline, &st)
	wg.Wait()
	st.elapsed = time.Since(start)
	st.w1 = len(g.writes)
	return st
}

func (g *loadGen) reader(p phase, deadline time.Time, out *phaseStats) {
	rng := rand.New(rand.NewSource(g.seed*1000003 + int64(g.phases)))
	next := rng.Intn(len(g.reqs))
	var buf bytes.Buffer
	batch := g.w.batch > 0
	for n := 0; time.Now().Before(deadline); n++ {
		rq := &g.reqs[next]
		k := next
		next = (next + 1) % len(g.reqs)
		lo := g.acked.Load()
		t0 := time.Now()
		status, body, err := g.do(rq, &buf)
		t1 := time.Now()
		nSent := int(g.sent.Load())
		out.items += len(rq.idx)
		lat := t1.Sub(t0).Nanoseconds()
		switch {
		case err != nil || status != http.StatusOK:
			lat = math.MaxInt64
			out.bad += len(rq.idx)
		case p.writer:
			ans, derr := g.chk.decode(status, body, len(rq.idx), batch)
			if derr != nil {
				out.bad += len(rq.idx)
				break
			}
			out.recs = append(out.recs, readRec{req: k, lo: lo, nSent: nSent, ans: ans})
		default:
			out.bad += g.chk.judge(status, body, rq.idx, batch)
		}
		t2 := time.Now()
		out.lat = append(out.lat, lat)
		out.done = append(out.done, t1.Sub(out.start).Nanoseconds())
		out.size = append(out.size, len(rq.idx))
		if p.traced && n%8 == 0 {
			tr := g.spans.newID()
			g.spans.add(tr, 0, tr, "http.roundtrip", t0, t1, len(rq.idx))
			g.spans.add(tr, 0, tr, "client.check", t1, t2, len(rq.idx))
			g.spans.add(tr, tr, 0, "client.read", t0, t2, len(rq.idx))
		}
	}
}

// writer sends one /update of w.writeSize point updates every 1/writeRate
// seconds until the deadline. It never sends early; a late request is sent
// at once, and its latency still counts from when it was due.
func (g *loadGen) writer(start, deadline time.Time) {
	period := time.Second / time.Duration(g.w.writeRate)
	var buf bytes.Buffer
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return
		}
		if g.upNext+g.w.writeSize > len(g.ups) {
			return
		}
		// A sleep on this kind of host overshoots by about half a
		// millisecond, which would be charged to the server; sleep short
		// and yield until the request is due.
		if d := time.Until(due) - time.Millisecond; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		ups := g.ups[g.upNext : g.upNext+g.w.writeSize]
		g.upNext += g.w.writeSize
		body, err := json.Marshal(map[string][]update{"updates": ups})
		if err != nil {
			panic(err) // ints always encode
		}
		rec := writeRec{ups: ups, due: due, ready: due, sent: time.Now()}
		if n := len(g.writes); n > 0 && g.writes[n-1].done.After(due) {
			rec.ready = g.writes[n-1].done
		}
		g.sent.Add(1)
		resp, err := g.client.Post(g.base+"/update", "application/json", bytes.NewReader(body))
		if err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			var ack updateAck
			if err == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(buf.Bytes(), &ack) == nil && ack.Seq > 0 {
				rec.ok, rec.seq, rec.queueWait, rec.commit = true, ack.Seq, ack.QueueWaitNS, ack.CommitNS
			}
		}
		rec.done = time.Now()
		g.writes = append(g.writes, rec)
		if rec.ok && rec.seq > g.acked.Load() {
			g.acked.Store(rec.seq)
		}
	}
}

// groups maps each committed seq to the updates it carried, and hiOf gives
// the highest seq among the first n writes sent.
func (g *loadGen) groups() (map[uint64][]update, func(n int) uint64) {
	m := make(map[uint64][]update)
	prefix := make([]uint64, len(g.writes)+1)
	for i, w := range g.writes {
		prefix[i+1] = prefix[i]
		if w.ok {
			m[w.seq] = append(m[w.seq], w.ups...)
			if w.seq > prefix[i+1] {
				prefix[i+1] = w.seq
			}
		}
	}
	return m, func(n int) uint64 { return prefix[n] }
}

// check sweeps every read recorded beside the writer; it returns the
// failed items.
func (g *loadGen) check(stats ...*phaseStats) int {
	groups, hiOf := g.groups()
	var recs []readRec
	for _, st := range stats {
		recs = append(recs, st.recs...)
	}
	t0 := time.Now()
	bad := g.chk.sweep(g.reqs, recs, groups, hiOf)
	defer func() { progress(t0, "checked %d reads answered beside %d writes", len(recs), len(groups)) }()
	// Bring the state up to the last commit, so answers judged after the
	// writer drained compare against the final cells.
	last := hiOf(len(g.writes))
	for g.chk.seq < last {
		g.chk.advance(g.chk.seq+1, groups[g.chk.seq+1])
	}
	return bad
}

// get fetches a path and returns its body.
func (g *loadGen) get(path string) ([]byte, error) {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = &statusError{resp.StatusCode, path}
	}
	return b, err
}

type statusError struct {
	code int
	path string
}

func (e *statusError) Error() string { return e.path + ": status " + http.StatusText(e.code) }
