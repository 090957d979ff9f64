package core

// DefaultPoolCap bounds each profile's training pools (CPI runs and
// invariant windows). 512 windows is far beyond the N≈10 normal runs the
// paper trains on, yet keeps a long-lived retraining loop from growing the
// pools — and every refit over them — without bound.
const DefaultPoolCap = 512

// trainingPool accumulates training material across Train* calls with
// fingerprint deduplication and FIFO capacity eviction. Identical appended
// items (same content fingerprint) are dropped, so retraining over the same
// traces cannot grow the pool; at capacity the oldest item is evicted.
// Not synchronised — callers hold the owning profile's lock.
type trainingPool[T any] struct {
	cap   int
	seen  map[uint64]struct{}
	items []T
	fps   []uint64
}

// newTrainingPool returns an empty pool holding at most cap (> 0) items.
func newTrainingPool[T any](cap int) trainingPool[T] {
	return trainingPool[T]{cap: cap, seen: make(map[uint64]struct{})}
}

// add appends item unless one with the same fingerprint is already pooled,
// evicting the oldest items first when the pool is at capacity. It reports
// whether the item was added.
func (p *trainingPool[T]) add(fp uint64, item T) bool {
	if _, dup := p.seen[fp]; dup {
		return false
	}
	for len(p.items) >= p.cap {
		delete(p.seen, p.fps[0])
		// Shift rather than re-slice so evicted heads don't pin the backing
		// arrays forever.
		copy(p.items, p.items[1:])
		var zero T
		p.items[len(p.items)-1] = zero
		p.items = p.items[:len(p.items)-1]
		copy(p.fps, p.fps[1:])
		p.fps = p.fps[:len(p.fps)-1]
	}
	p.seen[fp] = struct{}{}
	p.items = append(p.items, item)
	p.fps = append(p.fps, fp)
	return true
}

// snapshot returns a copy of the pooled items in insertion order.
func (p *trainingPool[T]) snapshot() []T {
	return append([]T(nil), p.items...)
}

// size returns the number of pooled items.
func (p *trainingPool[T]) size() int { return len(p.items) }
