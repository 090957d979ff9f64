package core

import (
	"math"
	"sync"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
)

// DefaultAssocCacheSize bounds a profile's report cache when
// Config.AssocCacheSize is zero. A report holds one tuple flag and one mask
// flag per invariant plus its violated pairs: under 6 KB at 26 metrics even
// with all 325 pairs trained and violated, so the default worst case stays
// under 25 MB per profile.
const DefaultAssocCacheSize = 4096

// CacheStats reports report-cache effectiveness. Every diagnosis looks up
// its window's report once, so a hit is a window whose earlier MIC work is
// reused.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// fnv1a is the FNV-1a (64-bit) accumulator window fingerprints mix
// through, integers little-endian, one byte per round.
type fnv1a uint64

const (
	fnvOffset fnv1a = 14695981039346656037
	fnvPrime  fnv1a = 1099511628211
)

func (h fnv1a) b(c byte) fnv1a { return (h ^ fnv1a(c)) * fnvPrime }

func (h fnv1a) u64(v uint64) fnv1a {
	for s := 0; s < 64; s += 8 {
		h = h.b(byte(v >> s))
	}
	return h
}

// fingerprintWindow hashes a window's shape, raw float64 bit patterns and
// validity mask. Associations are pure functions of the samples and the
// mask, so equal fingerprints mean an equal analysis; a masked window and
// its unmasked twin (same samples, different validity) hash apart, and a
// nil mask contributes nothing.
func fingerprintWindow(rows [][]float64, valid [][]bool) uint64 {
	h := fnvOffset.u64(uint64(len(rows)))
	for _, r := range rows {
		h = h.u64(uint64(len(r)))
		for _, v := range r {
			h = h.u64(math.Float64bits(v))
		}
	}
	if valid == nil {
		return uint64(h)
	}
	h = h.u64(uint64(len(valid)))
	for _, row := range valid {
		h = h.u64(uint64(len(row)))
		var word uint64
		n := 0
		for _, ok := range row {
			word <<= 1
			if ok {
				word |= 1
			}
			if n++; n == 64 {
				h = h.u64(word)
				word, n = 0, 0
			}
		}
		if n > 0 {
			h = h.u64(word)
		}
	}
	return uint64(h)
}

// cacheKey is the one key scheme of a profile's cache. A violation report is
// a verdict of one invariant set at one lifecycle epoch: retraining or
// promotion installs a fresh *Set and a quarantine bumps the epoch, so
// either makes every earlier report unreachable without any sweep.
type cacheKey struct {
	fp    uint64 // fingerprintWindow of the samples and mask
	set   *invariant.Set
	epoch uint64
}

// assocCache memoises the violation reports of diagnosed windows with FIFO
// eviction. Each profile owns its cache, so the key needs no context
// component and cached state never crosses profiles. A cached report is
// shared across callers and read-only; a report stored again under its key
// (two diagnoses of one window racing) keeps its place in the eviction
// order.
type assocCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*ViolationReport
	order   []cacheKey
	hits    int64
	misses  int64
}

// newAssocCache sizes a cache: size 0 selects the default bound, negative
// disables caching entirely (returns nil; callers treat nil as a miss-only
// pass-through).
func newAssocCache(size int) *assocCache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = DefaultAssocCacheSize
	}
	return &assocCache{
		max:     size,
		entries: make(map[cacheKey]*ViolationReport),
	}
}

func (c *assocCache) get(k cacheKey) (*ViolationReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rep, ok
}

func (c *assocCache) put(k cacheKey, rep *ViolationReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[k]; exists {
		c.entries[k] = rep
		return
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[k] = rep
	c.order = append(c.order, k)
}

func (c *assocCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// scorer picks the pair scorer for one window — the one place the policy
// lives: one mic.NewBatch preparation when the measure is the stock MIC
// (per-metric sorting and partitioning hoisted out of the pair loop), else
// nil, which makes the kernel call Assoc per pair. A degenerate metric (too
// few samples, non-finite values) is a nil slot of the batch that scores 0,
// not an error; NewBatch fails only on no rows or ragged rows, which also
// yields nil, and the kernel's own validation then reports the shape.
func (p *Profile) scorer(rows [][]float64) invariant.PairScorer {
	if p.sys.batchMIC {
		if b, err := mic.NewBatch(rows, mic.DefaultConfig()); err == nil {
			return b
		}
	}
	return nil
}

// memo returns the violation report of window tr against set, cached under
// the one key scheme, computing and storing it on a miss. The key —
// lifecycle epoch included — is captured once, before compute runs: a
// window whose own diagnosis bumps the epoch is stored under the old key and
// simply never hit again, which is safe in both directions.
func (p *Profile) memo(tr *metrics.Trace, set *invariant.Set, compute func() (*ViolationReport, error)) (*ViolationReport, error) {
	if p.cache == nil {
		return compute()
	}
	key := cacheKey{fp: fingerprintWindow(tr.Rows, tr.Valid), set: set}
	if p.lc != nil {
		key.epoch = p.lc.epoch.Load()
	}
	if rep, ok := p.cache.get(key); ok {
		return rep, nil
	}
	rep, err := compute()
	if err == nil {
		p.cache.put(key, rep)
	}
	return rep, err
}
