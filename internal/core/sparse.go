package core

import (
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
)

// This file is the diagnosis hot path: the one Violations → ViolationReport
// pipeline, with cost proportional to the trained invariant edge set instead
// of the full M×M matrix. Per window it runs three tiers — a memoised report
// lookup (Profile.memo), the prescreen lower bound over each trained pair
// (invariant.Prescreener), and the exact association only for the pairs the
// screen cannot certify. The prescreen certificate is one-sided, so verdicts
// equal the dense fill's; the equivalence tests compare against
// invariant.ComputeMaskedMatrixScored judged pair by pair directly.

// SparseStats aggregates edge telemetry: how trained pairs were resolved
// across all diagnoses (see invariant.EdgeStats for the tiers). Report-cache
// hits evaluate no pairs and advance nothing.
type SparseStats struct {
	Screened int64
	Exact    int64
	Skipped  int64
}

// Violations computes the violation report of an abnormal metric window
// against the profile's invariants. Missing or masked samples make the
// touched invariants *unknown* rather than violated. The returned report may
// be shared with the cache and other callers — strictly read-only.
func (p *Profile) Violations(abnormal *metrics.Trace) (*ViolationReport, error) {
	set, err := p.Invariants()
	if err != nil {
		return nil, err
	}
	// Cache hits skip health observation entirely: an identical window
	// re-diagnosed adds no information to the drift series.
	return p.memo(abnormal, set, func() (*ViolationReport, error) {
		return p.judge(set, abnormal)
	})
}

// judge computes the violation report of one window against set, uncached.
func (p *Profile) judge(set *invariant.Set, tr *metrics.Trace) (*ViolationReport, error) {
	cfg := &p.sys.cfg
	scorer := p.scorer(tr.Rows)
	raw, known, st, err := set.ComputeEdgesMasked(tr.Rows, tr.Valid, cfg.Assoc, scorer, 0, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	if p.lc != nil {
		// Drift lifecycle: health over the raw verdicts, shadow
		// re-estimation from exact scores, quarantine masking. Shadow
		// candidates judge themselves on clean windows only (known nil) — on
		// a degraded window no whole-window score is valid, so those windows
		// observe health without re-estimating.
		var score func(pr invariant.Pair) float64
		if known == nil {
			score = func(pr invariant.Pair) float64 {
				if scorer != nil {
					return scorer.Score(pr.I, pr.J)
				}
				return cfg.Assoc(tr.Rows[pr.I], tr.Rows[pr.J])
			}
		}
		raw, known = p.lifecyclePost(set, raw, known, score)
	}
	rep := &ViolationReport{Tuple: signature.Tuple(raw), Known: known, Coverage: 1, set: set}
	checkable := 0
	for k, pr := range set.SortedPairs() {
		if known != nil && !known[k] {
			continue
		}
		checkable++
		if raw[k] {
			rep.Violated = append(rep.Violated, pr)
		}
	}
	if len(known) > 0 {
		rep.Coverage = float64(checkable) / float64(len(known))
	}
	p.sparseScreened.Add(int64(st.Screened))
	p.sparseExact.Add(int64(st.Exact))
	p.sparseSkipped.Add(int64(st.Skipped))
	return rep, nil
}
