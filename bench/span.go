package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions. Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the span that caused this one, -1 for a root
	Round  int32  `json:"round"`  // the spans of one script round share it
}

// tracer keeps spans in memory until the run ends. The replaying client
// opens spans on its own goroutine; decorated estimators and journals add
// child spans from the server's goroutines, finding their parent through
// cur, which the client sets around each request.
type tracer struct {
	t0 time.Time
	//overprov:lock rank=91
	mu    sync.Mutex
	spans []span
	cur   atomic.Int32 // open request span, -1 outside a request
	round atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	s := span{Name: name, Start: t.now(), Parent: parent, Round: t.round.Load()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records a completed span under the current request span.
func (t *tracer) child(name string, start int64) {
	s := span{Name: name, Start: start, End: t.now(), Parent: t.cur.Load(), Round: t.round.Load()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTotals is one span name's aggregate.
type layerTotals struct {
	Count int
	Total int64 // Σ duration, ns
	Self  int64 // Σ self time, ns
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// totals aggregates the recorded spans by name.
func (t *tracer) totals() map[string]layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := map[string]layerTotals{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += self[i]
		out[s.Name] = lt
	}
	return out
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
