package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Trace; Parent is the enclosing span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
	Self   int64  `json:"self_ns"` // duration minus what child spans cover
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untraced run pays no tracing cost.
type spanLog struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// add records a span of trace under parent (0 for a root). A parent's ID
// is taken with newID before its children are added, because its end is
// known only after theirs; id 0 takes a fresh one.
func (l *spanLog) add(trace, id, parent uint64, name string, start, end time.Time, items int) {
	if l == nil {
		return
	}
	if id == 0 {
		id = l.newID()
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(), Items: items}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// computeSelf fills each span's self time: its duration minus the union
// of its children's intervals, clipped to it.
func (l *spanLog) computeSelf() {
	kids := make(map[uint64][]int)
	for i, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return l.spans[cs[a]].Start < l.spans[cs[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range cs {
			lo, hi := max(l.spans[k].Start, reach), min(l.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

type selfRow struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// write dumps the spans and their self time by name as JSON.
func (l *spanLog) write(path string, header map[string]any) (map[string]selfRow, error) {
	l.computeSelf()
	byName := make(map[string]selfRow)
	for _, s := range l.spans {
		r := byName[s.Name]
		r.Count++
		r.TotalNS += s.End - s.Start
		r.SelfNS += s.Self
		byName[s.Name] = r
	}
	out := map[string]any{"header": header, "self_by_name": byName, "spans": l.spans}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return byName, err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return byName, err
	}
	return byName, os.WriteFile(path, b, 0o644)
}
