package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"rangecube/internal/cube"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// answer is one decoded query result, reduced to what the checker needs.
// It holds no pointers, so the answers a mixed phase keeps for its sweep
// cost the garbage collector nothing to scan.
type answer struct {
	ok     bool // a result, not an item error
	bounds bool
	value  int64
	lo, hi int64
	avg    float64
	at     int // offset of the cell a max/min names; -1 when none
	vol    int
}

type wireResult struct {
	Value   int64    `json:"value"`
	Average float64  `json:"average"`
	At      []string `json:"at"`
	Lower   *int64   `json:"lower_bound"`
	Upper   *int64   `json:"upper_bound"`
	Volume  int      `json:"volume"`
}

type wireBatch struct {
	Count   int `json:"count"`
	Results []struct {
		Result *wireResult `json:"result"`
		Error  string      `json:"error"`
	} `json:"results"`
}

// checker holds the expected state of the cube at one sequence number and
// judges answers against it. Updates only ever add positive deltas, so a
// region's max can be carried forward from update to update; min and sum
// are rescanned or carried as noted on each field.
type checker struct {
	dims    []*cube.Dimension
	items   []item
	cells   *ndarray.Array[int64] // cells at seq
	seq     uint64
	sum     []int64 // per item: sum over its region at seq
	max     []int64 // per item: max over its region at seq
	touched []bool  // an update since the seed landed in the item's region
}

func newChecker(dims []*cube.Dimension, items []item, seed *ndarray.Array[int64]) *checker {
	c := &checker{
		dims:    dims,
		items:   items,
		cells:   seed.Clone(),
		sum:     make([]int64, len(items)),
		max:     make([]int64, len(items)),
		touched: make([]bool, len(items)),
	}
	for i, it := range items {
		c.sum[i] = it.sum
		c.max[i] = it.ext
	}
	return c
}

// decode parses a read response into one answer per item. A status other
// than 200, or a body that does not carry n answers, fails the request.
func (c *checker) decode(status int, body []byte, n int, batch bool) ([]answer, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	ans := make([]answer, n)
	if !batch {
		var r wireResult
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if n != 1 {
			return nil, fmt.Errorf("GET answers one query, request has %d", n)
		}
		return ans, c.fill(&ans[0], &r)
	}
	var b wireBatch
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	if b.Count != n || len(b.Results) != n {
		return nil, fmt.Errorf("batch of %d answered with count %d and %d results", n, b.Count, len(b.Results))
	}
	for k, r := range b.Results {
		if r.Result == nil {
			continue // an item error: ans[k].ok stays false
		}
		if err := c.fill(&ans[k], r.Result); err != nil {
			return nil, err
		}
	}
	return ans, nil
}

func (c *checker) fill(a *answer, r *wireResult) error {
	*a = answer{ok: true, value: r.Value, avg: r.Average, vol: r.Volume, at: -1}
	if r.Lower != nil && r.Upper != nil {
		a.bounds, a.lo, a.hi = true, *r.Lower, *r.Upper
	}
	if len(r.At) == 0 {
		return nil
	}
	if len(r.At) != len(c.dims) {
		return fmt.Errorf("cell %v names %d dimensions, cube has %d", r.At, len(r.At), len(c.dims))
	}
	co := make([]int, len(r.At))
	for i, s := range r.At {
		name, v, _ := strings.Cut(s, "=")
		if name != c.dims[i].Name() {
			return fmt.Errorf("cell %v: dimension %d is %q", r.At, i, c.dims[i].Name())
		}
		rank, err := rankOf(c.dims[i], v)
		if err != nil {
			return err
		}
		co[i] = rank
	}
	a.at = c.cells.Offset(co...)
	return nil
}

// judge decodes a response and checks it against the current state; it
// returns how many of the request's items failed.
func (c *checker) judge(status int, body []byte, idx []int, batch bool) int {
	ans, err := c.decode(status, body, len(idx), batch)
	if err != nil {
		return len(idx)
	}
	return c.verify(idx, ans, nil)
}

// verify counts the answers that differ from the state at c.seq with the
// updates in extra applied on top. The caller has already added extra to
// c.cells.
func (c *checker) verify(idx []int, ans []answer, extra []update) (bad int) {
	for k, i := range idx {
		if !c.ok(i, ans[k], extra) {
			bad++
		}
	}
	return bad
}

func (c *checker) ok(i int, a answer, extra []update) bool {
	it := &c.items[i]
	if !a.ok || a.vol != it.region.Volume() {
		return false
	}
	switch it.op {
	case "sum", "avg":
		want := c.sum[i]
		for _, u := range extra {
			if it.region.Contains(u.Coords) {
				want += u.Delta
			}
		}
		if a.value != want {
			return false
		}
		if it.op == "avg" {
			return a.avg == float64(want)/float64(a.vol)
		}
		// §11: the bounds computed before the exact answer must contain it.
		return a.bounds && a.lo <= a.value && a.value <= a.hi
	case "max", "min":
		if a.at < 0 || !it.region.Contains(c.cells.Coords(a.at, nil)) || c.cells.Data()[a.at] != a.value {
			return false
		}
		return a.value == c.extreme(i, extra)
	}
	return false
}

func (c *checker) extreme(i int, extra []update) int64 {
	it := &c.items[i]
	hit := c.touched[i]
	m := c.max[i]
	for _, u := range extra {
		if it.region.Contains(u.Coords) {
			hit = true
			if v := c.cells.At(u.Coords...); v > m {
				m = v
			}
		}
	}
	if it.op == "max" {
		return m
	}
	if !hit {
		return it.ext
	}
	_, v, _ := naive.Min(c.cells, it.region, nil)
	return v
}

// advance applies one committed group and moves the state to its seq.
func (c *checker) advance(seq uint64, group []update) {
	for _, u := range group {
		off := c.cells.Offset(u.Coords...)
		c.cells.Data()[off] += u.Delta
		v := c.cells.Data()[off]
		for i := range c.items {
			it := &c.items[i]
			if !it.region.Contains(u.Coords) {
				continue
			}
			c.touched[i] = true
			c.sum[i] += u.Delta
			if v > c.max[i] {
				c.max[i] = v
			}
		}
	}
	c.seq = seq
}

func (c *checker) addCells(ups []update, sign int64) {
	for _, u := range ups {
		c.cells.Data()[c.cells.Offset(u.Coords...)] += sign * u.Delta
	}
}

// readRec is a read answered while writes were committing. Its answers
// must all hold at one sequence number in [lo, hi]: lo is the highest seq
// acknowledged before the request was sent, and hi the highest seq among
// the writes sent before the response arrived.
type readRec struct {
	req   int
	lo    uint64
	nSent int
	ans   []answer
}

// sweep checks recorded reads in seq order against the committed groups
// (groups[s] is the group committed as seq s). It returns the number of
// failed items.
func (c *checker) sweep(reqs []readReq, recs []readRec, groups map[uint64][]update, hiOf func(nSent int) uint64) (bad int) {
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].lo < recs[b].lo })
	for _, r := range recs {
		for c.seq < r.lo {
			c.advance(c.seq+1, groups[c.seq+1])
		}
		idx := reqs[r.req].idx
		best := c.verify(idx, r.ans, nil)
		var extra []update
		for s := r.lo + 1; best > 0 && s <= hiOf(r.nSent); s++ {
			c.addCells(groups[s], 1)
			extra = append(extra, groups[s]...)
			if b := c.verify(idx, r.ans, extra); b < best {
				best = b
			}
		}
		c.addCells(extra, -1)
		bad += best
	}
	return bad
}

// selfTest feeds the checker one wrong sum, one max whose named cell
// disagrees and one 503, and fails unless each is counted as a failure.
func selfTest() error {
	dims := []*cube.Dimension{cube.NewIntDimension("x", 0, 3), cube.NewIntDimension("y", 0, 3)}
	cells := ndarray.New[int64](4, 4)
	for i := range cells.Data() {
		cells.Data()[i] = int64(i)
	}
	region := ndarray.Reg(1, 2, 1, 2) // cells 5, 6, 9, 10
	items := []item{
		{op: "sum", sel: selectors(dims, region), region: region, sum: 30},
		{op: "max", sel: selectors(dims, region), region: region, ext: 10},
	}
	c := newChecker(dims, items, cells)
	idx := []int{0, 1}
	body := func(sum int64, at string) []byte {
		return []byte(`{"count":2,"results":[` +
			fmt.Sprintf(`{"result":{"op":"sum","value":%d,"lower_bound":0,"upper_bound":100,"volume":4}},`, sum) +
			`{"result":{"op":"max","value":10,"at":["x=` + at + `","y=2"],"volume":4}}]}`)
	}
	if bad := c.judge(200, body(30, "2"), idx, true); bad != 0 {
		return fmt.Errorf("a correct batch was judged with %d failures", bad)
	}
	var errs []error
	if bad := c.judge(200, body(31, "2"), idx, true); bad != 1 {
		errs = append(errs, fmt.Errorf("a wrong sum was judged with %d failures, want 1", bad))
	}
	if bad := c.judge(200, body(30, "1"), idx, true); bad != 1 {
		errs = append(errs, fmt.Errorf("a max naming a cell that holds 6 was judged with %d failures, want 1", bad))
	}
	if bad := c.judge(503, []byte(`{"error":"query exceeded the deadline"}`), idx, true); bad != 2 {
		errs = append(errs, fmt.Errorf("a 503 was judged with %d failures, want 2", bad))
	}
	return errors.Join(errs...)
}
