package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
)

// Profile is the self-contained diagnosis state of one operation context:
// its trained CPI detector, invariant set, signature entries and report
// cache. Each profile synchronises itself, so training or diagnosing one
// context never contends with another.
//
// A Profile is obtained from System.Profile (created on first use) and
// stays valid for the lifetime of the System.
type Profile struct {
	sys *System
	key Context

	cache *assocCache // per-profile; nil when caching is disabled

	mu         sync.RWMutex
	detector   *detect.Detector
	invariants *invariant.Set
	sigs       *signature.DB        // the context's signature base
	training   invariant.TrainStats // summed over every TrainInvariants call

	// lc is the drift-aware invariant lifecycle (nil when disabled): edge
	// health, quarantine and shadow generations. See lifecycle.go.
	lc *lifecycle

	// Sparse-path edge telemetry (see SparseStats): how trained pairs were
	// resolved across every sparse diagnosis of this profile.
	sparseExact   atomic.Int64
	sparseSkipped atomic.Int64
}

// newProfile builds an empty profile for key under s's configuration.
func newProfile(s *System, key Context) *Profile {
	p := &Profile{sys: s, key: key, cache: newAssocCache(s.cfg.AssocCacheSize), sigs: signature.NewDB(key.Workload, key.IP, 0)}
	if s.cfg.Lifecycle {
		p.lc = &lifecycle{}
	}
	return p
}

// TrainPerformanceModel fits the ARIMA CPI model and thresholds from the
// CPI traces of N normal runs, replacing any model trained before. The
// detector is the paper's, detect.DefaultConfig.
func (p *Profile) TrainPerformanceModel(cpiTraces [][]float64) error {
	d, err := detect.Train(cpiTraces, detect.DefaultConfig())
	if err != nil {
		return fmt.Errorf("core: training performance model for %v: %w", p.key, err)
	}
	p.setDetector(d)
	return nil
}

// TrainInvariants runs Algorithm 1 over the metric traces of N normal runs
// and installs the set it selects, replacing any set trained before. Only
// the runs given train it: a caller pooling several sources (the no-context
// ablation of Figs. 9-10 pools every node) passes them in one call.
//
// A pair some window could not compute (masked or missing samples) is
// judged on the windows that could; an unknown score is never an
// observation of 0.
//
// Training is invariant.Train, pair-major: a pair is scored run by run, and
// only while its range is still under τ. keep is invariant.Train's pair
// predicate: a pair it rejects is never scored or selected; nil keeps every
// pair.
func (p *Profile) TrainInvariants(runs []*metrics.Trace, keep func(invariant.Pair) bool) error {
	in := make([]invariant.Run, len(runs))
	for r, tr := range runs {
		in[r] = invariant.Run{Rows: tr.Rows, Valid: tr.Valid, Scorer: func() invariant.PairScorer { return p.scorer(tr.Rows) }}
	}
	set, st, err := invariant.Train(in, p.sys.cfg.Assoc, p.sys.cfg.Tau, keep)
	if err != nil {
		return fmt.Errorf("core: training invariants for %v: %w", p.key, err)
	}
	p.mu.Lock()
	p.training.Scored += st.Scored
	p.training.Skipped += st.Skipped
	p.mu.Unlock()
	p.setInvariants(set)
	return nil
}

// Detector returns the trained CPI detector.
func (p *Profile) Detector() (*detect.Detector, error) {
	p.mu.RLock()
	d := p.detector
	p.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoModel, p.key)
	}
	return d, nil
}

// Invariants returns the trained invariant set.
func (p *Profile) Invariants() (*invariant.Set, error) {
	p.mu.RLock()
	set := p.invariants
	p.mu.RUnlock()
	if set == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoInvariants, p.key)
	}
	return set, nil
}

// ViolationReport is the outcome of the masked-first violation analysis of
// one abnormal window — the single pipeline behind BuildSignature and
// Diagnose. A clean window is simply the all-known case: Known is nil and
// Coverage is 1.
type ViolationReport struct {
	// Tuple is the binary violation tuple over the profile's sorted
	// invariant pairs; unknown coordinates are false (neither holding nor
	// violated).
	Tuple signature.Tuple
	// Known flags which invariants were checkable in the window. Nil means
	// the telemetry was clean and every invariant was checkable.
	Known []bool
	// Violated lists the known violated pairs — the hints InvarNet-X
	// reports for unknown problems.
	Violated []invariant.Pair
	// Coverage is the checkable fraction of invariants (1 on a clean
	// window) — defined here and nowhere else.
	Coverage float64

	// set is the invariant set the report was computed against. Carrying
	// it keeps every consumer of the report — Unknown naming, signature
	// matching — on the *same* model generation even when a concurrent
	// retrain or shadow promotion swaps the profile's live set
	// mid-diagnosis.
	set *invariant.Set
}

// buildSignature records the violation tuple of an investigated problem in
// the profile's signature entries ("Once the performance problem is
// resolved, a new signature will be added into the signature base"),
// returning the stored entry and whether it was new. Storage is idempotent
// by (context, fingerprint): re-labelling the same investigated problem — a
// retried POST, a re-run study — must not inflate the database and skew
// best-match scans.
func (p *Profile) buildSignature(problem string, abnormal *metrics.Trace) (signature.Entry, bool, error) {
	rep, err := p.Violations(abnormal)
	if err != nil {
		return signature.Entry{}, false, err
	}
	entry := signature.Entry{Tuple: rep.Tuple, Problem: problem, IP: p.key.IP, Workload: p.key.Workload}
	return entry, p.mergeSignatures(entry) == 1, nil
}

// mergeSignatures stores already-built entries of the profile's context
// under one lock, skipping any whose identical twin is present (a repeated
// label, an import of an entry already held), and returns how many were
// added.
func (p *Profile) mergeSignatures(es ...signature.Entry) (added int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range es {
		if p.sigs.Merge(e.Problem, e.Tuple) {
			added++
		}
	}
	return added
}

// setDetector installs a trained or loaded detector.
func (p *Profile) setDetector(d *detect.Detector) {
	p.mu.Lock()
	p.detector = d
	p.mu.Unlock()
}

// setInvariants installs a trained or loaded invariant set as the live
// generation.
func (p *Profile) setInvariants(set *invariant.Set) {
	p.mu.Lock()
	p.invariants = set
	p.mu.Unlock()
	if p.lc != nil {
		p.lc.install(set)
	}
}

// SignatureCount returns the number of stored signatures.
func (p *Profile) SignatureCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sigs.Len()
}

// Signatures returns the profile's stored signatures in insertion order, as
// copies the caller owns.
func (p *Profile) Signatures() []signature.Entry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sigs.Entries()
}

// SignatureSnapshot returns a deep copy of the profile's signature
// database, taken under the profile lock — safe to read, match and audit
// while concurrent BuildSignature calls keep writing to the live one.
func (p *Profile) SignatureSnapshot() *signature.DB {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sigs.Clone()
}

// Diagnose runs cause inference on an abnormal metric window. The pipeline
// is masked-first: invariants whose metrics were unavailable are reported
// unknown rather than violated, signature similarity is computed only over
// the known invariants, and scores and Confidence are weighted by the
// checkable fraction; a clean window is the all-known case of the same
// path.
func (p *Profile) Diagnose(abnormal *metrics.Trace) (*Diagnosis, error) {
	rep, err := p.Violations(abnormal)
	if err != nil {
		return nil, err
	}
	diag := &Diagnosis{Context: p.key, Tuple: rep.Tuple, Known: rep.Known, Coverage: rep.Coverage}
	for _, pr := range rep.Violated {
		diag.Hints = append(diag.Hints, pairName(pr, rep.set.M))
	}
	if rep.Known != nil {
		// Name unknown pairs against the set the report was computed with,
		// not a re-read of the live one: a retrain or shadow promotion
		// mid-diagnosis must not mix two generations in one verdict.
		pairs := rep.set.SortedPairs()
		for k, ok := range rep.Known {
			if !ok {
				diag.Unknown = append(diag.Unknown, pairName(pairs[k], rep.set.M))
			}
		}
	}
	p.mu.RLock()
	ranked, err := p.sigs.Rank(rep.Tuple, rep.Known, topCauses)
	p.mu.RUnlock()
	if err != nil {
		if errors.Is(err, signature.ErrEmpty) {
			return diag, nil // hints only
		}
		return nil, err
	}
	// Weight similarity by the checkable fraction: a perfect match found
	// while blind to half the invariants is only half the evidence.
	if diag.Coverage < 1 {
		for i := range ranked {
			ranked[i].Score *= diag.Coverage
		}
	}
	diag.Causes = ranked
	if len(ranked) > 0 {
		diag.Confidence = ranked[0].Score
	}
	return diag, nil
}

// ProfileStats is an operator-facing snapshot of one profile — and, summed
// with Add, of any group of profiles. It is the only statistics type that
// leaves the package: every system-wide figure is a reduction of
// System.ProfileStats(), so a new counter is one field here and one line in
// Add.
type ProfileStats struct {
	// Context is the profile's operation context (zero in a sum).
	Context Context
	// HasModel reports whether a CPI performance model is trained.
	HasModel bool
	// Invariants is the size of the trained invariant set (0 if none).
	Invariants int
	// Signatures is the number of stored problem signatures.
	Signatures int
	// Cache reports the profile's report-cache counters (zero when caching
	// is disabled).
	Cache CacheStats
	// Training counts the pair-window cells invariant training scored, and
	// skipped after a pair's range reached τ.
	Training invariant.TrainStats
	// Sparse reports the sparse diagnosis path's edge counters.
	Sparse SparseStats
	// SigScanned and SigEarlyExits are the signature best-match scan
	// counters: entries considered, and of them entries resolved without
	// counting their words (stale-length skips, the all-zero query).
	SigScanned, SigEarlyExits int64
	// Lifecycle reports the drift-lifecycle counters (zero when the
	// lifecycle is disabled).
	Lifecycle LifecycleStats
}

// Stats snapshots the profile for reporting. Everything p.mu guards is read
// under one hold of the lock.
func (p *Profile) Stats() ProfileStats {
	p.mu.RLock()
	st := ProfileStats{
		Context:    p.key,
		HasModel:   p.detector != nil,
		Signatures: p.sigs.Len(),
		Training:   p.training,
	}
	st.SigScanned, st.SigEarlyExits = p.sigs.ScanStats()
	if p.invariants != nil {
		st.Invariants = p.invariants.Len()
	}
	p.mu.RUnlock()
	if p.cache != nil {
		st.Cache = p.cache.stats()
	}
	st.Sparse = SparseStats{
		Exact:   p.sparseExact.Load(),
		Skipped: p.sparseSkipped.Load(),
	}
	st.Lifecycle = p.LifecycleStats()
	return st
}

// Add accumulates ps into t — the one reducer behind every system-wide
// total. Counts sum; Lifecycle.Enabled holds if it holds for any part;
// Lifecycle.Generation and ShadowAge take the maximum (the newest live model,
// the shadow candidate closest to a verdict). Context and HasModel describe
// one profile and are left alone.
func (t *ProfileStats) Add(ps ProfileStats) {
	t.Invariants += ps.Invariants
	t.Signatures += ps.Signatures
	t.Cache.Hits += ps.Cache.Hits
	t.Cache.Misses += ps.Cache.Misses
	t.Cache.Entries += ps.Cache.Entries
	t.Training.Scored += ps.Training.Scored
	t.Training.Skipped += ps.Training.Skipped
	t.Sparse.Exact += ps.Sparse.Exact
	t.Sparse.Skipped += ps.Sparse.Skipped
	t.SigScanned += ps.SigScanned
	t.SigEarlyExits += ps.SigEarlyExits
	lc, pl := &t.Lifecycle, ps.Lifecycle
	lc.Enabled = lc.Enabled || pl.Enabled
	lc.Edges += pl.Edges
	lc.Quarantined += pl.Quarantined
	lc.Observed += pl.Observed
	lc.Promotions += pl.Promotions
	lc.Rollbacks += pl.Rollbacks
	lc.Generation = max(lc.Generation, pl.Generation)
	lc.ShadowAge = max(lc.ShadowAge, pl.ShadowAge)
}
