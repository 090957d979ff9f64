package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded by the benchmark's own code around its calls into the
// program (instrumentation inside the program is a later change). Each client
// goroutine owns one recorder, so recording takes no lock; spans stay in
// memory until the pass ends and are then written out in one go.

// span is one timed interval. Spans of one request share Trace; Parent is the
// ID of the span that caused this one, -1 for a root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the pass epoch
	End    int64  `json:"endNs"`
}

// recorder collects one client's spans. A nil recorder records nothing, which
// is how the untraced pass runs the identical code path.
type recorder struct {
	epoch time.Time
	spans []span
	next  int32
}

// newRecorder returns a recorder whose span IDs start at base, so the spans of
// several recorders can be merged without colliding.
func newRecorder(epoch time.Time, base int32) *recorder {
	return &recorder{epoch: epoch, next: base}
}

// id reserves a span ID, for a parent whose children finish before it does.
func (r *recorder) id() int32 {
	if r == nil {
		return -1
	}
	r.next++
	return r.next - 1
}

// put records a finished span under a reserved ID.
func (r *recorder) put(id int32, trace int64, parent int32, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// add records a finished span and returns its ID.
func (r *recorder) add(trace int64, parent int32, name string, start, end time.Time) int32 {
	id := r.id()
	r.put(id, trace, parent, name, start, end)
	return id
}

// selfTimes returns, per span name, every span's self time in nanoseconds:
// its duration minus the part of that interval its child spans cover
// (overlapping children are counted once; a child is clipped to its parent).
// IDs are unique within spans.
func selfTimes(spans []span) map[string][]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.lo, k.hi
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
		out[s.Name] = append(out[s.Name], (s.End-s.Start)-covered)
	}
	return out
}

// medianMS returns the nearest-rank median of nanosecond values, in ms.
func medianMS(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e6
	}
	return median(xs)
}

// spanMedianMS returns the median duration, in ms, of the spans called name.
func spanMedianMS(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e6)
		}
	}
	return median(xs)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
