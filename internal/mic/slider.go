package mic

import (
	"errors"
	"math"
	"slices"
)

// Slider maintains one metric's sliding window together with its
// value-ascending point order, so advancing the window by k samples costs
// O(k·n) index maintenance instead of the O(n log n) re-sort prepare pays,
// and a Prepared is snapshotted only when a pair scoring needs one. No
// product path keeps one: the end-to-end benchmark replays one per metric.
//
// Invalid samples (telemetry gaps, non-finite values) are tracked but kept
// out of the order; a window containing any is unusable for whole-window
// scoring (Prepared reports errWindowMasked) and the caller falls back to
// the masked per-pair path, exactly as a fresh Batch over the same rows
// would treat the metric.
type Slider struct {
	cap   int
	vals  []float64 // window samples, time order
	ok    []bool    // per-sample validity (valid and finite)
	order []int     // indices of usable samples, ascending by value
}

// errWindowMasked reports a slider window containing invalid or non-finite
// samples: no whole-window preparation exists for it.
var errWindowMasked = errors.New("mic: slider window has masked samples")

// NewSlider returns an empty slider bounded at capacity samples. The
// Config argument changes nothing (see Config).
func NewSlider(capacity int, _ Config) *Slider {
	if capacity < 1 {
		capacity = 1
	}
	return &Slider{cap: capacity}
}

// Append pushes the newest sample, evicting the oldest when the window is
// full. Invalid or non-finite samples are stored (the window keeps its time
// shape) but excluded from the maintained order.
func (s *Slider) Append(v float64, valid bool) {
	if valid && (math.IsNaN(v) || math.IsInf(v, 0)) {
		valid = false
	}
	if len(s.vals) == s.cap {
		s.evictOldest()
	}
	idx := len(s.vals)
	s.vals = append(s.vals, v)
	s.ok = append(s.ok, valid)
	if !valid {
		return
	}
	// Insert after every existing value <= v: one binary search plus one
	// memmove, versus re-sorting the whole window.
	lo, hi := 0, len(s.order)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.vals[s.order[mid]] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.order = append(s.order, 0)
	copy(s.order[lo+1:], s.order[lo:])
	s.order[lo] = idx
}

// AppendBatch slides a whole batch into the window, oldest first —
// equivalent to calling Append per sample but paying the index maintenance
// once per batch instead of once per sample: a single eviction/renumber
// pass up front, and when the batch replaces the window outright (batch at
// least as long as the capacity, the bulk-ingest steady state) one
// re-sort instead of len(batch) evict/insert cycles. The resulting window
// and order are identical to the sequential path.
func (s *Slider) AppendBatch(vals []float64, ok []bool) {
	b := len(vals)
	if b == 0 {
		return
	}
	if b >= s.cap {
		off := b - s.cap
		s.vals = append(s.vals[:0], vals[off:]...)
		s.ok = s.ok[:0]
		s.order = s.order[:0]
		for i, v := range s.vals {
			valid := ok[off+i] && !math.IsNaN(v) && !math.IsInf(v, 0)
			s.ok = append(s.ok, valid)
			if valid {
				s.order = append(s.order, i)
			}
		}
		// Ascending by value with ties in time order — exactly the order
		// the per-sample inserts ("after every existing value <= v") build.
		slices.SortFunc(s.order, func(a, b int) int {
			va, vb := s.vals[a], s.vals[b]
			if va != vb {
				if va < vb {
					return -1
				}
				return 1
			}
			return a - b
		})
		return
	}
	if over := len(s.vals) + b - s.cap; over > 0 {
		s.evictOldestN(over)
	}
	for i, v := range vals {
		s.Append(v, ok[i]) // room made above: no per-sample eviction
	}
}

// evictOldest drops sample 0 and renumbers the survivors.
func (s *Slider) evictOldest() { s.evictOldestN(1) }

// evictOldestN drops the k oldest samples and renumbers the survivors in
// one pass.
func (s *Slider) evictOldestN(k int) {
	copy(s.vals, s.vals[k:])
	s.vals = s.vals[:len(s.vals)-k]
	copy(s.ok, s.ok[k:])
	s.ok = s.ok[:len(s.ok)-k]
	w := 0
	for _, idx := range s.order {
		if idx < k {
			continue // evicted samples
		}
		s.order[w] = idx - k
		w++
	}
	s.order = s.order[:w]
}

// Prepared snapshots the current window as a fresh Prepared, reusing the
// maintained order (the tie boundaries and equipartitions are rebuilt —
// they do not admit incremental maintenance, but they are O(n) given the
// order). The snapshot copies the window, so later Appends do not disturb
// it. Degenerate windows report the same errors prepare would:
// errTooFewSamples below minSamples, and errWindowMasked when any sample is
// invalid (a fresh preparation over the masked row would be meaningless).
func (s *Slider) Prepared() (*Prepared, error) {
	n := len(s.vals)
	if n < minSamples {
		return nil, errTooFewSamples
	}
	if len(s.order) != n {
		return nil, errWindowMasked
	}
	vals := make([]float64, n)
	copy(vals, s.vals)
	order := make([]int, n)
	copy(order, s.order)
	return newPrepared(vals, order), nil
}
