package main

import (
	"testing"

	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
)

// TestCheckerCatchesErrors is the correctness gate's own test: a wrong sum,
// a max naming a cell that does not hold the value, and a 503 must each be
// counted as failures.
func TestCheckerCatchesErrors(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepFindsTheCommittedState checks that a read answered while writes
// committed is accepted at any seq in its window and rejected outside it.
func TestSweepFindsTheCommittedState(t *testing.T) {
	dims := []*cube.Dimension{cube.NewIntDimension("x", 0, 3), cube.NewIntDimension("y", 0, 3)}
	cells := ndarray.New[int64](4, 4)
	region := ndarray.Reg(0, 1, 0, 1)
	items := []item{{op: "sum", sel: selectors(dims, region), region: region}}
	reqs := []readReq{{idx: []int{0}}}
	groups := map[uint64][]update{
		1: {{Coords: []int{0, 0}, Delta: 5}},
		2: {{Coords: []int{1, 1}, Delta: 7}},
		3: {{Coords: []int{3, 3}, Delta: 9}},
	}
	hiOf := func(n int) uint64 { return uint64(n) }
	sum := func(v int64) []answer {
		return []answer{{ok: true, bounds: true, value: v, lo: 0, hi: 100, vol: 4, at: -1}}
	}
	for _, tc := range []struct {
		lo    uint64
		sent  int
		value int64
		bad   int
	}{
		{0, 0, 0, 0},  // before any commit
		{0, 2, 12, 0}, // seq 2 committed before the answer
		{1, 1, 12, 1}, // seq 2 was not sent yet
		{2, 3, 5, 1},  // seq 2 was acknowledged before the request
	} {
		c := newChecker(dims, items, cells)
		bad := c.sweep(reqs, []readRec{{req: 0, lo: tc.lo, nSent: tc.sent, ans: sum(tc.value)}}, groups, hiOf)
		if bad != tc.bad {
			t.Errorf("window [%d, %d] value %d: %d failures, want %d", tc.lo, tc.sent, tc.value, bad, tc.bad)
		}
	}
}
