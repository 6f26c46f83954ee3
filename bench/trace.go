package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark itself
// around the call (outside-in: the program under test carries no spans).
type span struct {
	Workload string `json:"workload,omitempty"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Rep      int    `json:"rep"`    // spans of one rep share this id
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: begin returns 0 and end ignores it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rep   int
	spans []span
	// clockNs is what an empty begin/end pair records as its duration; it
	// is subtracted from hot-path spans whose body is of the same order.
	clockNs float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	var empty []float64
	for i := 0; i < 512; i++ {
		t.end(t.begin("calibrate", 0))
	}
	for _, s := range t.spans {
		empty = append(empty, float64(s.End-s.Start))
	}
	t.clockNs = median(empty)
	t.spans = t.spans[:0]
	return t
}

// nextRep starts a new rep: spans begun from now on carry its id.
func (t *tracer) nextRep() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep++
	t.mu.Unlock()
}

// begin opens a span. The start time is taken last and end takes the end
// time first, so the bookkeeping stays outside the measured interval.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name})
	sp := &t.spans[id-1]
	sp.Start = int64(time.Since(t.t0))
	sp.End = sp.Start
	t.mu.Unlock()
	return id
}

// add records a span whose start and end (ns since t0) were measured by
// someone else, such as an observer callback reporting a phase's duration.
func (t *tracer) add(name string, parent int, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: t.rep, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// appendJSONL appends the spans to path, one JSON object per line.
func (t *tracer) appendJSONL(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.Workload = workload
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the parts child spans cover
}

// selfTimes computes, per span name, how much time was spent in spans of
// that name and how much of it no child span covers. Children may overlap
// each other (parallel work) and may stick out of their parent; only the
// union of child intervals inside the parent is subtracted.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}
