package core

import (
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
)

// This file is the diagnosis hot path: the one Violations → ViolationReport
// pipeline, with cost proportional to the trained invariant edge set instead
// of the full M×M matrix. Per window it is a memoised report lookup
// (Profile.memo) and, on a miss, the exact association of every trained
// pair with enough valid overlap, so verdicts equal the dense fill's; the
// equivalence tests compare against invariant.ComputeMaskedMatrixScored
// judged pair by pair directly.

// SparseStats aggregates edge telemetry over all diagnoses: Exact trained
// pairs were scored (once each, quarantined edges included), Skipped pairs
// were unknown for want of valid overlap under a degraded window. Report-cache
// hits evaluate no pairs and advance nothing.
type SparseStats struct {
	Exact   int64
	Skipped int64
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
	raw, known, scores, err := set.ComputeEdgesMasked(tr.Rows, tr.Valid, cfg.Assoc, p.scorer(tr.Rows), 0, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	// Counted before the lifecycle masks quarantined edges: they were scored.
	exact := len(raw)
	for _, ok := range known {
		if !ok {
			exact--
		}
	}
	p.sparseExact.Add(int64(exact))
	p.sparseSkipped.Add(int64(len(raw) - exact))
	// Drift lifecycle: health over the raw verdicts, shadow re-estimation
	// from the edge pass's exact scores, quarantine masking. Shadow
	// candidates judge themselves on clean windows only (known nil) — on a
	// degraded window no whole-window score is valid, so those windows
	// observe health without re-estimating.
	if known != nil {
		scores = nil
	}
	raw, known = p.lifecyclePost(set, raw, known, scores)
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
	return rep, nil
}
