package core

import (
	"math"
	"sync"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
)

// DefaultAssocCacheSize bounds a profile's association-matrix cache when
// Config.AssocCacheSize is zero. At 26 metrics a matrix is ~2.6 KB, so the
// default worst case stays near 10 MB per profile.
const DefaultAssocCacheSize = 4096

// CacheStats reports association-cache effectiveness. Every TrainInvariants
// call looks up the memo of each pooled window once, and every uncached
// diagnosis its report, so a hit is a window whose earlier MIC work is
// reused; how many pair scores training still ran is ProfileStats.Training.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// fnv1a is the package's one FNV-1a (64-bit) accumulator: window
// fingerprints and the profile registry's shard hash both mix through it,
// integers little-endian, one byte per round.
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

func (h fnv1a) str(s string) fnv1a {
	for i := 0; i < len(s); i++ {
		h = h.b(s[i])
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

// cacheKey is the one key scheme of a profile's cache. A training memo
// depends on the window alone (set nil, epoch 0). A violation report is a
// verdict of one invariant set at one lifecycle epoch: retraining or
// promotion installs a fresh *Set and a quarantine bumps the epoch, so
// either makes every earlier report unreachable without any sweep.
type cacheKey struct {
	fp    uint64 // fingerprintWindow of the samples and mask
	set   *invariant.Set
	epoch uint64
}

// cacheEntry is one memoised analysis: the training memo of a window (its
// association matrix as far as training has scored it — cells no pair
// needed stay pending, see invariant.Matrix), or the finished violation
// report of a diagnosed one. All cached state is shared across callers and
// read-only; training that scores more of a window stores a fresh copy.
type cacheEntry struct {
	mat *invariant.Matrix
	rep *ViolationReport
}

// assocCache memoises window analyses with FIFO eviction; training memos
// and diagnosis reports share the one bound. Each profile owns its cache, so
// the key needs no context component and cached state never crosses
// profiles. Replacing an entry (a training memo that gained cells) keeps its
// place in the eviction order.
type assocCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]cacheEntry
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
		entries: make(map[cacheKey]cacheEntry),
	}
}

func (c *assocCache) get(k cacheKey) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

func (c *assocCache) put(k cacheKey, e cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[k]; exists {
		c.entries[k] = e
		return
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[k] = e
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
// nil, which makes the kernel call Assoc per pair. A preparation error (too
// few samples, non-finite values, ragged rows) also yields nil; shape errors
// are then reported by the kernel's own validation.
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
func (p *Profile) memo(tr *metrics.Trace, set *invariant.Set, compute func() (cacheEntry, error)) (cacheEntry, error) {
	if p.cache == nil {
		return compute()
	}
	key := cacheKey{fp: fingerprintWindow(tr.Rows, tr.Valid), set: set}
	if p.lc != nil {
		key.epoch = p.lc.epoch.Load()
	}
	if e, ok := p.cache.get(key); ok {
		return e, nil
	}
	e, err := compute()
	if err == nil {
		p.cache.put(key, e)
	}
	return e, err
}

// trainingMemos turns a training pool into invariant.Train's runs, each
// carrying its window's memo from the cache (one lookup per window). The
// batch scorer is prepared only if training scores a pair of the window.
func (p *Profile) trainingMemos(pool []*metrics.Trace) ([]invariant.Run, []cacheKey) {
	in := make([]invariant.Run, len(pool))
	keys := make([]cacheKey, len(pool))
	for r, tr := range pool {
		in[r] = invariant.Run{Rows: tr.Rows, Valid: tr.Valid, Scorer: func() invariant.PairScorer { return p.scorer(tr.Rows) }}
		if p.cache == nil {
			continue
		}
		keys[r] = cacheKey{fp: fingerprintWindow(tr.Rows, tr.Valid)}
		if e, ok := p.cache.get(keys[r]); ok {
			in[r].Memo = e.mat
		}
	}
	return in, keys
}

// storeMemos is the copy-on-write half: a cached memo is never written —
// Train hands back a fresh matrix for every window it scored anything in
// (or had no memo for), and that copy replaces the entry under the same key.
func (p *Profile) storeMemos(in []invariant.Run, keys []cacheKey, memos []*invariant.Matrix) {
	if p.cache == nil {
		return
	}
	for r, mat := range memos {
		if mat != in[r].Memo {
			p.cache.put(keys[r], cacheEntry{mat: mat})
		}
	}
}

// CacheStats reports the profile's association-cache counters and current
// size. Zero-valued when caching is disabled.
func (p *Profile) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats()
}
