package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/xmlstore"
)

// The lifecycle tests drive the drift state machine with a deterministic
// association measure: the score of a pair is the average of the two
// metrics' first samples, so a window *is* its scores and every phase of
// the lifecycle (drift, quarantine, shadow convergence, promotion) can be
// produced on demand with exact timing.

func valueAssoc(x, y []float64) float64 { return (x[0] + y[0]) / 2 }

// valueTrace builds a window whose pair scores are fixed by vals; tweak
// perturbs the last sample of metric 0 only, so windows with different
// tweaks have different fingerprints but identical scores.
func valueTrace(vals []float64, n int, tweak float64) *metrics.Trace {
	rows := make([][]float64, len(vals))
	for i, v := range vals {
		rows[i] = make([]float64, n)
		for t := range rows[i] {
			rows[i][t] = v
		}
	}
	rows[0][n-1] += tweak
	return &metrics.Trace{Rows: rows, Ticks: n}
}

// fastLifecycle is a lifecycle tuned so each phase takes a handful of
// windows: quarantine after 4 persistent violations, promotion after 4
// side-by-side evaluations.
var fastLifecycle = tuning{
	minObservations: 4,
	drift:           0.2,
	threshold:       1,
	decayAlpha:      0.5,
	shadowMinEvals:  4,
	shadowMaxEvals:  16,
	promoteMaxRate:  0.3,
}

// useTuning makes tu the lifecycle tuning for the rest of the test.
func useTuning(t *testing.T, tu tuning) {
	t.Helper()
	saved := lifecycleTuning
	lifecycleTuning = tu
	t.Cleanup(func() { lifecycleTuning = saved })
}

// lifecycleConfig is a lifecycle system over valueAssoc, tuned fastLifecycle
// for the rest of the test.
func lifecycleConfig(t *testing.T) Config {
	t.Helper()
	useTuning(t, fastLifecycle)
	cfg := DefaultConfig()
	cfg.Assoc = valueAssoc
	cfg.Lifecycle = true
	return cfg
}

// trainValueSystem trains a 3-metric system where every pair scores 0.8:
// all three pairs become invariants with base 0.8.
func trainValueSystem(t *testing.T, cfg Config, ctx Context) *System {
	t.Helper()
	sys := New(cfg)
	run := valueTrace([]float64{0.8, 0.8, 0.8}, 16, 0)
	if err := sys.TrainInvariants(ctx, []*metrics.Trace{run}); err != nil {
		t.Fatalf("TrainInvariants: %v", err)
	}
	set, err := sys.Profile(ctx).Invariants()
	if err != nil {
		t.Fatalf("Invariants: %v", err)
	}
	if set.Len() != 3 {
		t.Fatalf("trained %d invariants, want 3", set.Len())
	}
	return sys
}

func pairNames(prs []invariant.Pair) []string {
	out := make([]string, len(prs))
	for i, pr := range prs {
		out[i] = pairName(pr, 3) // the value systems are 3 metrics wide
	}
	return out
}

// TestLifecycleQuarantineAndPromotion walks the full state machine: a
// persistent shift on metric 2 first produces false positives, then
// quarantines the two drifted edges (which must vanish from Violated and
// surface as unknown), then the shadow generation re-estimated from the
// post-shift scores is promoted and the false positives clear — precision
// restored without retraining.
func TestLifecycleQuarantineAndPromotion(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1 // every window recomputed: exact phase timing
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)

	if g := p.LifecycleStats().Generation; g != 1 {
		t.Fatalf("generation after training = %d, want 1", g)
	}

	// Clean traffic: no violations, nothing drifts.
	for i := 0; i < 6; i++ {
		rep, err := p.Violations(valueTrace([]float64{0.8, 0.8, 0.8}, 16, float64(i)*1e-6))
		if err != nil {
			t.Fatalf("clean window %d: %v", i, err)
		}
		if len(rep.Violated) != 0 {
			t.Fatalf("clean window %d violated %v", i, rep.Violated)
		}
	}
	if st := p.LifecycleStats(); st.Quarantined != 0 || st.Promotions != 0 {
		t.Fatalf("clean traffic moved lifecycle state: %+v", st)
	}

	// Metric 2 shifts for good: pairs (0,2) and (1,2) now score 0.5 against
	// base 0.8. The first windows are false positives; the clean warmup
	// already satisfied minObservations, so the change-point alarm is the
	// binding constraint — two windows of 0.8 excess cross threshold 1.
	drifted := []float64{0.8, 0.8, 0.2}
	quarantinedAt := -1
	promotedAt := -1
	for i := 0; i < 12 && promotedAt < 0; i++ {
		rep, err := p.Violations(valueTrace(drifted, 16, float64(i)*1e-6))
		if err != nil {
			t.Fatalf("drifted window %d: %v", i, err)
		}
		st := p.LifecycleStats()
		switch {
		case st.Promotions > 0:
			promotedAt = i
		case st.Quarantined > 0 && quarantinedAt < 0:
			quarantinedAt = i
			if st.Quarantined != 2 {
				t.Fatalf("window %d: quarantined %d edges, want 2", i, st.Quarantined)
			}
		}
		if quarantinedAt >= 0 {
			// Zero spurious reports from quarantined edges: they are unknown,
			// never violated.
			if len(rep.Violated) != 0 {
				t.Fatalf("window %d: quarantined edges still violated: %v", i, rep.Violated)
			}
			if rep.Known == nil {
				t.Fatalf("window %d: quarantined edges not surfaced as unknown", i)
			}
			unknown := 0
			for _, ok := range rep.Known {
				if !ok {
					unknown++
				}
			}
			if st.Quarantined > 0 && unknown != st.Quarantined {
				t.Fatalf("window %d: %d unknown coordinates, %d quarantined", i, unknown, st.Quarantined)
			}
		} else if len(rep.Violated) != 2 {
			// Pre-quarantine the drifted pairs are live false positives.
			t.Fatalf("window %d: %d violations before quarantine, want 2 (%v)", i, len(rep.Violated), rep.Violated)
		}
	}
	if quarantinedAt != 1 {
		t.Fatalf("quarantined at window %d, want 1 (second alarm-accumulating window)", quarantinedAt)
	}
	if promotedAt < 0 {
		t.Fatalf("shadow generation never promoted")
	}

	st := p.LifecycleStats()
	if st.Promotions != 1 || st.Quarantined != 0 || st.Generation != 2 {
		t.Fatalf("post-promotion stats %+v, want 1 promotion, 0 quarantined, generation 2", st)
	}

	// The promoted generation holds on post-shift traffic: full coverage,
	// no violations — and the Diagnose surface agrees.
	diag, err := p.Diagnose(valueTrace(drifted, 16, 99))
	if err != nil {
		t.Fatalf("post-promotion diagnose: %v", err)
	}
	if len(diag.Hints) != 0 || len(diag.Unknown) != 0 || diag.Coverage != 1 {
		t.Fatalf("post-promotion diagnosis = hints %v unknown %v coverage %v, want clean", diag.Hints, diag.Unknown, diag.Coverage)
	}

	// And a genuine fault against the *new* baselines is still caught.
	rep, err := p.Violations(valueTrace([]float64{0.8, 0.8, 0.9}, 16, 100))
	if err != nil {
		t.Fatalf("fault window: %v", err)
	}
	if len(rep.Violated) != 2 {
		t.Fatalf("fault against promoted baselines: violated %v, want the two re-estimated pairs", pairNames(rep.Violated))
	}
}

// TestLifecycleFaultBurstDoesNotQuarantine distinguishes the two kinds of
// violation the health series must separate: a short fault burst drains
// back out of the change-point accumulator, while only a persistent shift
// quarantines.
func TestLifecycleFaultBurstDoesNotQuarantine(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1
	tu := fastLifecycle
	tu.drift = 0.4 // tolerate bursty faults
	tu.threshold = 2
	useTuning(t, tu)
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)

	clean := []float64{0.8, 0.8, 0.8}
	fault := []float64{0.8, 0.8, 0.2}
	w := 0
	window := func(vals []float64) *ViolationReport {
		t.Helper()
		rep, err := p.Violations(valueTrace(vals, 16, float64(w)*1e-6))
		w++
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		return rep
	}
	for burst := 0; burst < 5; burst++ {
		for i := 0; i < 2; i++ {
			rep := window(fault)
			if len(rep.Violated) != 2 {
				t.Fatalf("burst fault window reported %v, want 2 violations", rep.Violated)
			}
		}
		for i := 0; i < 6; i++ {
			window(clean)
		}
	}
	if st := p.LifecycleStats(); st.Quarantined != 0 || st.Promotions != 0 {
		t.Fatalf("fault bursts quarantined edges: %+v", st)
	}
}

// TestLifecycleScoresEachPairOnce: with edges quarantined, an uncached
// clean verdict scores each trained pair exactly once. The shadow
// re-estimation reads the edge pass's scores; it does not score the
// quarantined edges a second time.
func TestLifecycleScoresEachPairOnce(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	useTuning(t, quarantineShadow)
	var calls atomic.Int64
	cfg := DefaultConfig()
	cfg.Assoc = func(x, y []float64) float64 {
		calls.Add(1)
		return valueAssoc(x, y)
	}
	cfg.Lifecycle = true
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)
	set, err := p.Invariants()
	if err != nil {
		t.Fatal(err)
	}
	// One shifted window quarantines metric 2's two edges.
	if _, err := p.Violations(valueTrace([]float64{0.8, 0.8, 0.2}, 16, 0)); err != nil {
		t.Fatal(err)
	}
	// Clean windows at the trained level: the live edges hold, so no shadow
	// beats them and the quarantine stands. Distinct tweaks make every
	// verdict a report-cache miss.
	for i := 1; i <= 8; i++ {
		quarantined := p.LifecycleStats().Quarantined
		if quarantined == 0 {
			t.Fatalf("window %d: no edge quarantined", i)
		}
		calls0, exact0 := calls.Load(), p.Stats().Sparse.Exact
		if _, err := p.Violations(valueTrace([]float64{0.8, 0.8, 0.8}, 16, float64(i)*1e-6)); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		n, exact := calls.Load()-calls0, p.Stats().Sparse.Exact-exact0
		if n != exact || exact != int64(set.Len()) {
			t.Fatalf("window %d: %d Assoc calls for %d exact pairs with %d edges quarantined; want both %d, one per trained pair",
				i, n, exact, quarantined, set.Len())
		}
	}
}

// TestLifecycleCacheEpochInvalidation pins the report-cache interaction: one
// key of (window fingerprint, set identity, lifecycle epoch) must retire a
// cached report on each of the three events that change the verdict surface
// — a quarantine (epoch bump), a promotion and a retrain (fresh set) — while
// bit-identical content keeps hitting in between.
func TestLifecycleCacheEpochInvalidation(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t) // report cache enabled (default size)
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)

	drifted := []float64{0.8, 0.8, 0.2}
	first := valueTrace(drifted, 16, 0)
	rep, err := p.Violations(first)
	if err != nil {
		t.Fatalf("first drifted window: %v", err)
	}
	if len(rep.Violated) != 2 {
		t.Fatalf("first drifted window violated %v, want 2 pairs", rep.Violated)
	}

	// Identical window re-diagnosed: served from cache (no new observation
	// — an identical window adds no drift information).
	before := p.LifecycleStats().Observed
	rep2, err := p.Violations(valueTrace(drifted, 16, 0))
	if err != nil {
		t.Fatalf("repeat window: %v", err)
	}
	if rep2 != rep {
		t.Fatalf("identical pre-quarantine window not served from cache")
	}
	if after := p.LifecycleStats().Observed; after != before {
		t.Fatalf("cache hit advanced health observation %d -> %d", before, after)
	}

	// Distinct windows until the drifted edges quarantine.
	for i := 1; p.LifecycleStats().Quarantined == 0; i++ {
		if i > 10 {
			t.Fatalf("edges never quarantined")
		}
		if _, err := p.Violations(valueTrace(drifted, 16, float64(i)*1e-6)); err != nil {
			t.Fatalf("drifted window %d: %v", i, err)
		}
	}

	// The first window again, bit-identical content: its cached report says
	// "two violations", but the quarantine bumped the epoch, so the stale
	// verdict must not come back — the recomputed one masks both edges.
	rep3, err := p.Violations(valueTrace(drifted, 16, 0))
	if err != nil {
		t.Fatalf("post-quarantine repeat: %v", err)
	}
	if rep3 == rep {
		t.Fatalf("stale pre-quarantine report served after epoch bump")
	}
	if len(rep3.Violated) != 0 {
		t.Fatalf("post-quarantine repeat violated %v, want quarantined edges masked", rep3.Violated)
	}
	if rep3.Known == nil || rep3.Coverage >= 1 {
		t.Fatalf("post-quarantine repeat did not surface unknowns (coverage %v)", rep3.Coverage)
	}
	if again, _ := p.Violations(valueTrace(drifted, 16, 0)); again != rep3 {
		t.Fatalf("post-quarantine report not cached under the new epoch")
	}

	// Promotion: the shadow generation re-estimated from the drifted scores
	// replaces the live set, and the quarantine-era report must go with it.
	for i := 100; p.LifecycleStats().Promotions == 0; i++ {
		if i > 120 {
			t.Fatalf("shadow generation never promoted")
		}
		if _, err := p.Violations(valueTrace(drifted, 16, float64(i)*1e-6)); err != nil {
			t.Fatalf("drifted window %d: %v", i, err)
		}
	}
	rep4, err := p.Violations(valueTrace(drifted, 16, 0))
	if err != nil {
		t.Fatalf("post-promotion repeat: %v", err)
	}
	if rep4 == rep3 || rep4.Known != nil || len(rep4.Violated) != 0 {
		t.Fatalf("post-promotion repeat served a stale report: %+v", rep4)
	}

	// Retrain on the pre-drift window: a fresh set with the old baselines,
	// against which the same content violates again.
	if err := p.TrainInvariants([]*metrics.Trace{valueTrace([]float64{0.8, 0.8, 0.8}, 16, 0)}, nil); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	rep5, err := p.Violations(valueTrace(drifted, 16, 0))
	if err != nil {
		t.Fatalf("post-retrain repeat: %v", err)
	}
	if rep5 == rep4 || len(rep5.Violated) != 2 {
		t.Fatalf("post-retrain repeat served a stale report: %+v", rep5)
	}
}

// TestLifecyclePersistRoundTrip saves a profile mid-quarantine and restores
// it into a fresh system: the health and shadow state must come back
// exactly, and the restored shadow must finish converging to a promotion
// just as the original would have.
func TestLifecyclePersistRoundTrip(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)

	drifted := []float64{0.8, 0.8, 0.2}
	for i := 0; i < 8; i++ {
		if _, err := p.Violations(valueTrace(drifted, 16, float64(i)*1e-6)); err != nil {
			t.Fatalf("drifted window %d: %v", i, err)
		}
	}
	want := p.LifecycleStats()
	if want.Quarantined != 2 || want.Promotions != 0 || want.ShadowAge == 0 {
		t.Fatalf("mid-quarantine stats %+v, want 2 quarantined with shadow progress", want)
	}

	dir := t.TempDir()
	if err := sys.SaveTo(dir); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}

	sys2 := New(cfg)
	rep, err := sys2.LoadFrom(dir)
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if rep.Lifecycles != 1 || rep.Partial() {
		t.Fatalf("load report %v, want 1 lifecycle state and no skips", rep)
	}
	p2 := sys2.Profile(ctx)
	got := p2.LifecycleStats()
	if got.Generation != want.Generation || got.Quarantined != want.Quarantined ||
		got.Observed != want.Observed || got.ShadowAge != want.ShadowAge {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	for _, e := range p2.LifecycleEdges() {
		wantState := xmlstore.StateLive
		if e.J == 2 {
			wantState = xmlstore.StateQuarantined
		}
		if e.State != wantState {
			t.Fatalf("restored edge (%d,%d) state %v, want %v", e.I, e.J, e.State, wantState)
		}
	}

	// The restored shadow picks up where the original left off: a few more
	// post-shift windows complete the promotion.
	for i := 8; i < 16 && p2.LifecycleStats().Promotions == 0; i++ {
		if _, err := p2.Violations(valueTrace(drifted, 16, float64(i)*1e-6)); err != nil {
			t.Fatalf("post-restore window %d: %v", i, err)
		}
	}
	st := p2.LifecycleStats()
	if st.Promotions != 1 || st.Generation != want.Generation+1 || st.Quarantined != 0 {
		t.Fatalf("restored shadow did not promote: %+v", st)
	}
}

// TestCrossProfilePersistQuarantineRoundTrip is the lifecycle/persistence
// pin for a profile trained under a pair predicate on a joint window: 22
// constant rows, two 11-metric halves, only the pairs spanning them kept. It
// saves and restores like any profile (invariants, signatures, verdicts
// intact), its drifted edges quarantine through the same health machinery,
// and the quarantined state itself survives a restart, after which those
// edges are unknown, never violated, in every verdict.
func TestCrossProfilePersistQuarantineRoundTrip(t *testing.T) {
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1
	const k = 11
	ctx := Context{Workload: "sort", IP: "10.0.0.2~10.0.0.3#shuffle"}
	// jointVals sets every metric to 0.8 but the first; dropping it breaks
	// exactly the k spanning pairs (0, j) for j in the second half.
	jointVals := func(m0 float64) []float64 {
		vals := make([]float64, 2*k)
		for i := range vals {
			vals[i] = 0.8
		}
		vals[0] = m0
		return vals
	}
	row := func(s *System) ProfileStats {
		t.Helper()
		snap := s.ProfileStats()
		if len(snap) != 1 || snap[0].Context != ctx {
			t.Fatalf("snapshot %+v, want the one profile %v", snap, ctx)
		}
		return snap[0]
	}

	sys := New(cfg)
	if err := sys.Profile(ctx).TrainInvariants([]*metrics.Trace{valueTrace(jointVals(0.8), 16, 0)}, halves(k)); err != nil {
		t.Fatalf("TrainInvariants: %v", err)
	}
	// k*k spanning pairs survive the predicate; the 2*55 within-half pairs
	// of the joint window are never selected.
	wantEdges := k * k
	if ps := row(sys); ps.Invariants != wantEdges || ps.Lifecycle.Quarantined != 0 {
		t.Fatalf("trained stats %+v, want %d edges", ps, wantEdges)
	}

	fault := func(tweak float64) *metrics.Trace { return valueTrace(jointVals(0.2), 16, tweak) }
	if err := sys.BuildSignature(ctx, "xlink@10.0.0.3", fault(0)); err != nil {
		t.Fatalf("BuildSignature: %v", err)
	}

	// Restart: a fresh system restores the profile from disk and reproduces
	// the verdict.
	dir := t.TempDir()
	if err := sys.SaveTo(dir); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	sys2 := New(cfg)
	if rep, err := sys2.LoadFrom(dir); err != nil || rep.Partial() {
		t.Fatalf("LoadFrom: %v (report %v)", err, rep)
	}
	if ps := row(sys2); ps.Invariants != wantEdges || ps.Signatures != 1 {
		t.Fatalf("restored stats %+v, want %d edges and 1 signature", ps, wantEdges)
	}
	diag, err := sys2.Diagnose(ctx, fault(1e-3))
	if err != nil {
		t.Fatalf("Diagnose after restore: %v", err)
	}
	if len(diag.Hints) != k {
		t.Fatalf("restored diagnosis hints %v, want the %d spanning pairs of the dropped metric", diag.Hints, k)
	}
	if diag.RootCause() != "xlink@10.0.0.3" || diag.Context != ctx || diag.Confidence <= 0 {
		t.Fatalf("restored verdict %q on %v (confidence %v), want xlink@10.0.0.3 on %v",
			diag.RootCause(), diag.Context, diag.Confidence, ctx)
	}

	// Persistent drift on the same metric: the k affected edges ride the
	// health series into quarantine.
	quarantined := 0
	for i := 0; i < 12 && quarantined == 0; i++ {
		if _, err := sys2.Violations(ctx, fault(float64(2+i)*1e-6)); err != nil {
			t.Fatalf("drift window %d: %v", i, err)
		}
		quarantined = row(sys2).Lifecycle.Quarantined
	}
	if quarantined != k {
		t.Fatalf("quarantined %d edges, want %d", quarantined, k)
	}
	if st := totals(sys2); st.Lifecycle.Quarantined != quarantined || st.Invariants != wantEdges || st.Signatures != 1 {
		t.Fatalf("totals %+v diverge from the profile snapshot", st)
	}

	// Second restart, mid-quarantine: the quarantine map comes back, and the
	// quarantined edges are absent from verdicts: unknown, never violated,
	// named by index (the window is not the collector's).
	dir2 := t.TempDir()
	if err := sys2.SaveTo(dir2); err != nil {
		t.Fatalf("SaveTo mid-quarantine: %v", err)
	}
	sys3 := New(cfg)
	if rep, err := sys3.LoadFrom(dir2); err != nil || rep.Partial() {
		t.Fatalf("LoadFrom mid-quarantine: %v (report %v)", err, rep)
	}
	if got := row(sys3).Lifecycle.Quarantined; got != quarantined {
		t.Fatalf("restored %d quarantined edges, want %d", got, quarantined)
	}
	diag3, err := sys3.Diagnose(ctx, fault(0.5))
	if err != nil {
		t.Fatalf("Diagnose mid-quarantine: %v", err)
	}
	if len(diag3.Hints) != 0 {
		t.Fatalf("quarantined edges still violated: %v", diag3.Hints)
	}
	var wantUnknown []string
	for j := k; j < 2*k; j++ {
		wantUnknown = append(wantUnknown, fmt.Sprintf("m0-m%d", j))
	}
	if !reflect.DeepEqual(diag3.Unknown, wantUnknown) || diag3.Coverage >= 1 {
		t.Fatalf("quarantined edges not surfaced as unknown: %v (coverage %v), want %v", diag3.Unknown, diag3.Coverage, wantUnknown)
	}
}

// TestLifecycleSaveAroundPromotionRestoresOneGeneration saves a profile
// once mid-quarantine and once after the shadow generation's promotion. Each
// store restores exactly the generation it was saved in: the first its two
// quarantined edges over the trained baselines, the second the promoted
// baselines with every edge live — never one generation's edge state over
// the other's set.
func TestLifecycleSaveAroundPromotionRestoresOneGeneration(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)

	drifted := []float64{0.8, 0.8, 0.2}
	i := 0
	feed := func() {
		t.Helper()
		if _, err := p.Violations(valueTrace(drifted, 16, float64(i)*1e-6)); err != nil {
			t.Fatalf("drifted window %d: %v", i, err)
		}
		i++
	}
	restore := func(dir string) *Profile {
		t.Helper()
		sys2 := New(cfg)
		rep, err := sys2.LoadFrom(dir)
		if err != nil {
			t.Fatalf("LoadFrom: %v", err)
		}
		if rep.Invariants != 1 || rep.Lifecycles != 1 || rep.Partial() {
			t.Fatalf("load report %v, want invariants and lifecycle both recovered", rep)
		}
		return sys2.Profile(ctx)
	}
	for i < 8 {
		feed()
	}
	if st := p.LifecycleStats(); st.Quarantined != 2 || st.Promotions != 0 {
		t.Fatalf("pre-promotion stats %+v", st)
	}
	dirPre := t.TempDir()
	if err := sys.SaveTo(dirPre); err != nil {
		t.Fatalf("SaveTo(pre): %v", err)
	}
	for p.LifecycleStats().Promotions == 0 {
		if i > 20 {
			t.Fatalf("never promoted")
		}
		feed()
	}
	dirPost := t.TempDir()
	if err := sys.SaveTo(dirPost); err != nil {
		t.Fatalf("SaveTo(post): %v", err)
	}

	pre := restore(dirPre)
	if st := pre.LifecycleStats(); st.Quarantined != 2 || st.Promotions != 0 {
		t.Fatalf("pre-promotion store restored %+v, want its 2 quarantined edges", st)
	}
	set, _ := pre.Invariants()
	for _, e := range pre.LifecycleEdges() {
		pr := invariant.Pair{I: e.I, J: e.J}
		if quarantined := e.State == xmlstore.StateQuarantined; quarantined != (e.J == 2) || set.Base[pr] != 0.8 {
			t.Fatalf("pre-promotion edge %v restored %v over baseline %v", pr, e.State, set.Base[pr])
		}
	}

	post := restore(dirPost)
	if st := post.LifecycleStats(); st.Quarantined != 0 || st.ShadowAge != 0 || st.Promotions != 1 {
		t.Fatalf("post-promotion store restored %+v, want the promoted generation", st)
	}
	// Verdicts follow the promoted generation: post-shift traffic is clean,
	// pre-shift values now violate the re-estimated pairs.
	repD, err := post.Violations(valueTrace(drifted, 16, 0.5))
	if err != nil {
		t.Fatalf("post-restore drifted window: %v", err)
	}
	if len(repD.Violated) != 0 || repD.Coverage != 1 {
		t.Fatalf("promoted generation did not restore: violated %v coverage %v", repD.Violated, repD.Coverage)
	}
	repO, err := post.Violations(valueTrace([]float64{0.8, 0.8, 0.8}, 16, 0.5))
	if err != nil {
		t.Fatalf("post-restore old-level window: %v", err)
	}
	if len(repO.Violated) != 2 {
		t.Fatalf("old-level window violated %v against promoted baselines, want the 2 re-estimated pairs", pairNames(repO.Violated))
	}
}

// TestSaveToRacesPromotion saves a profile over and over while concurrent
// diagnoses drive it through quarantine and promotion, back and forth
// between two levels. Every store saved must restore whole, with the edge
// health of exactly the restored set's pairs: a save that races a promotion
// persists one generation, never the set of one and the edges of the other.
// Run with -race.
func TestSaveToRacesPromotion(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)

	const diagnosers, saves = 2, 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < diagnosers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				level := 0.8 // alternate levels so every phase drifts, quarantines and promotes
				if (i/20)%2 == 0 {
					level = 0.2
				}
				if _, err := p.Violations(valueTrace([]float64{0.8, 0.8, level}, 16, float64(g<<32+i)*1e-9)); err != nil {
					t.Errorf("diagnoser %d window %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	defer func() { close(stop); wg.Wait() }()
	for n := 0; n < saves; n++ {
		dir := t.TempDir()
		if err := sys.SaveTo(dir); err != nil {
			t.Fatalf("save %d: %v", n, err)
		}
		sys2 := New(cfg)
		rep, err := sys2.LoadFrom(dir)
		if err != nil || rep.Partial() || rep.Lifecycles != 1 {
			t.Fatalf("save %d restored %v, %v", n, rep, err)
		}
		p2 := sys2.Profile(ctx)
		set, err := p2.Invariants()
		if err != nil {
			t.Fatal(err)
		}
		var edges []invariant.Pair
		for _, e := range p2.LifecycleEdges() {
			edges = append(edges, invariant.Pair{I: e.I, J: e.J})
		}
		if !reflect.DeepEqual(edges, set.SortedPairs()) {
			t.Fatalf("save %d restored edges %v over the set's pairs %v", n, edges, set.SortedPairs())
		}
	}
	st := p.LifecycleStats()
	t.Logf("%d promotions, %d rollbacks during %d saves", st.Promotions, st.Rollbacks, saves)
	if st.Promotions < 2 {
		t.Fatalf("%d promotions during %d saves, want the saves to race several", st.Promotions, saves)
	}
}

// TestPromotionDiagnoseRaceConsistency is the generation-consistency race
// test: diagnoses run concurrently with generation swaps (retrains of
// different sizes plus lifecycle promotions), and every diagnosis must be
// internally consistent with exactly one generation — tuple, known mask
// and unknown names all from the same set, never a mix. Run with -race.
func TestPromotionDiagnoseRaceConsistency(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t)
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)

	// Two live generations of different sizes: swapping between them
	// mid-diagnosis is how a mixed verdict would show (index mismatch
	// between tuple and pair list).
	setA := invariant.NewSet(3, map[invariant.Pair]float64{
		{I: 0, J: 1}: 0.8, {I: 0, J: 2}: 0.8, {I: 1, J: 2}: 0.8,
	})
	setB := invariant.NewSet(3, map[invariant.Pair]float64{
		{I: 0, J: 2}: 0.5, {I: 1, J: 2}: 0.5,
	})

	stop := make(chan struct{})
	var swapWg sync.WaitGroup
	swapWg.Add(1)
	go func() {
		defer swapWg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if k%2 == 0 {
				p.setInvariants(setA)
			} else {
				p.setInvariants(setB)
			}
		}
	}()

	drifted := []float64{0.8, 0.8, 0.2}
	errs := make(chan error, 8)
	var diagWg sync.WaitGroup
	for g := 0; g < 8; g++ {
		diagWg.Add(1)
		go func(g int) {
			defer diagWg.Done()
			for i := 0; i < 300; i++ {
				diag, err := p.Diagnose(valueTrace(drifted, 16, float64(g*1000+i)*1e-6))
				if err != nil {
					errs <- err
					return
				}
				n := len(diag.Tuple)
				if n != setA.Len() && n != setB.Len() {
					t.Errorf("tuple length %d matches no generation", n)
					return
				}
				if diag.Known != nil && len(diag.Known) != n {
					t.Errorf("known mask length %d over %d-pair tuple: mixed generations", len(diag.Known), n)
					return
				}
				if len(diag.Unknown)+len(diag.Hints) > n {
					t.Errorf("%d unknown + %d hints over %d pairs: mixed generations", len(diag.Unknown), len(diag.Hints), n)
					return
				}
			}
		}(g)
	}
	diagWg.Wait()
	close(stop)
	swapWg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("diagnose under generation swaps: %v", err)
	default:
	}
}

// edgeSet is the 4-metric, 3-edge set the record-level tests drive
// lifecycle.observe over with synthetic raw tuples.
func edgeSet() *invariant.Set {
	return invariant.NewSet(4, map[invariant.Pair]float64{
		{I: 0, J: 1}: 0.9,
		{I: 0, J: 2}: 0.8,
		{I: 1, J: 3}: 0.7,
	})
}

// feed observes n identical windows and returns the indices of the edges
// they quarantined, in order.
func feed(l *lifecycle, set *invariant.Set, raw, known []bool, scores []float64, n int) []int {
	var newly []int
	for i := 0; i < n; i++ {
		before := make([]bool, len(l.edges))
		for k := range l.edges {
			before[k] = l.edges[k].quarantined
		}
		l.observe(set, raw, known, scores, 0)
		for k := range l.edges {
			if !before[k] && l.edges[k].quarantined {
				newly = append(newly, k)
			}
		}
	}
	return newly
}

// constScores scores each of edgeSet's three edges s.
func constScores(s float64) []float64 { return []float64{s, s, s} }

// TestLifecycleObserve drives one lifecycle record by record: the health
// series, its change-point verdict and the shadow re-estimation of a
// quarantined edge.
func TestLifecycleObserve(t *testing.T) {
	clean := []bool{false, false, false}
	edge1 := []bool{false, true, false} // pair (0,2) violates
	// Every case starts from quarantineShadow, which quarantines edge 1 on
	// its first window so the shadow cases start from a fresh candidate;
	// tune, when set, adjusts it.
	cases := []struct {
		name string
		tune func(*tuning)
		run  func(t *testing.T, l *lifecycle, set *invariant.Set)
	}{
		{"persistent violator quarantines", func(c *tuning) { c.minObservations, c.threshold = 4, 2 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			if got := feed(l, set, edge1, nil, nil, 10); !reflect.DeepEqual(got, []int{1}) {
				t.Fatalf("quarantined %v, want [1]", got)
			}
			if qmask, promoted := l.observe(set, edge1, nil, nil, 0); !reflect.DeepEqual(qmask, edge1) || promoted != nil {
				t.Fatalf("quarantine mask %v (promoted %v), want %v", qmask, promoted, edge1)
			}
		}},
		{"min observations delays the verdict", func(c *tuning) { c.minObservations, c.threshold = 8, 2 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			// The sum crosses the threshold on the third window; the verdict
			// waits for the eighth.
			raw := []bool{true, false, false}
			if got := feed(l, set, raw, nil, nil, 7); len(got) != 0 {
				t.Fatalf("quarantined %v before minObservations", got)
			}
			if got := feed(l, set, raw, nil, nil, 1); !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("quarantined %v at observation 8, want [0]", got)
			}
		}},
		{"the sum alarms once past the threshold", func(c *tuning) { c.threshold = 2 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			// Each violation adds 1 − 0.1: 1.8 after two windows, 2.7 > 2
			// after three.
			raw := []bool{true, false, false}
			if got := feed(l, set, raw, nil, nil, 2); len(got) != 0 {
				t.Fatalf("quarantined %v at sum %v", got, l.edges[0].sum)
			}
			if got := feed(l, set, raw, nil, nil, 1); !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("quarantined %v at sum %v, want [0]", got, l.edges[0].sum)
			}
			// The sum keeps integrating past the threshold.
			before := l.edges[0].sum
			feed(l, set, raw, nil, nil, 1)
			if l.edges[0].sum <= before {
				t.Fatalf("sum %v -> %v after another violation", before, l.edges[0].sum)
			}
		}},
		{"a burst drains", func(c *tuning) { c.minObservations, c.drift, c.threshold = 4, 0.25, 3 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			all := []bool{true, true, true}
			// Repeated 2-window fault bursts separated by 10 clean windows:
			// the evidence drains between bursts and nothing quarantines.
			for round := 0; round < 20; round++ {
				if got := feed(l, set, all, nil, nil, 2); len(got) != 0 {
					t.Fatalf("burst round %d quarantined %v", round, got)
				}
				if got := feed(l, set, clean, nil, nil, 10); len(got) != 0 {
					t.Fatalf("clean stretch round %d quarantined %v", round, got)
				}
			}
		}},
		{"an isolated blip drains to zero", func(c *tuning) { c.drift, c.threshold = 0.25, 3 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			all := []bool{true, true, true}
			// One violation then three quiet windows drain the sum to exactly
			// zero (0.75 − 3·0.25), and blips spaced that wide never add up.
			for round := 0; round < 50; round++ {
				if got := feed(l, set, all, nil, nil, 1); len(got) != 0 {
					t.Fatalf("blip round %d quarantined %v", round, got)
				}
				feed(l, set, clean, nil, nil, 3)
				for k := range l.edges {
					if l.edges[k].sum != 0 {
						t.Fatalf("blip round %d: edge %d sum %v after 3 quiet windows, want 0", round, k, l.edges[k].sum)
					}
				}
			}
		}},
		{"unknown edges carry no information", func(c *tuning) { c.minObservations, c.threshold = 2, 1 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			all := []bool{true, true, true}
			if got := feed(l, set, all, []bool{false, false, false}, nil, 50); len(got) != 0 {
				t.Fatalf("fully unknown windows quarantined %v", got)
			}
			for k, e := range l.edges {
				if e != (edge{}) {
					t.Fatalf("edge %d moved by unknown windows: %+v", k, e)
				}
			}
			// A partly known window observes its known edges only.
			feed(l, set, all, []bool{true, false, true}, nil, 1)
			if l.edges[0].obs != 1 || l.edges[1].obs != 0 || l.edges[2].obs != 1 {
				t.Fatalf("partly known window observed %+v", l.edges)
			}
		}},
		{"a window of another set is discarded", nil, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			other := edgeSet() // same pairs, another generation
			if qmask, promoted := l.observe(other, []bool{true, true, true}, nil, nil, 0); qmask != nil || promoted != nil {
				t.Fatalf("stale window returned mask %v, promoted %v", qmask, promoted)
			}
			if l.observed != 0 || l.edges[0] != (edge{}) {
				t.Fatalf("stale window observed: %d windows, edge 0 %+v", l.observed, l.edges[0])
			}
		}},
		{"the first shadow score is exact", func(c *tuning) { c.decayAlpha = 0.25 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			feed(l, set, edge1, nil, nil, 1)
			e := &l.edges[1]
			if _, ok := e.shadow(); ok || !e.quarantined {
				t.Fatalf("fresh quarantine %+v, want an empty shadow", *e)
			}
			feed(l, set, edge1, nil, constScores(0.8), 1)
			if v, ok := e.shadow(); !ok || v != 0.8 || e.n != 1 {
				t.Fatalf("shadow after one score = %v, %v (n %d); want 0.8 exactly (bias-corrected)", v, ok, e.n)
			}
			if _, ok := l.edges[0].shadow(); ok {
				t.Fatalf("live edge absorbed a score: %+v", l.edges[0])
			}
		}},
		{"the shadow tracks a shifted level", func(c *tuning) { c.decayAlpha, c.shadowMaxEvals = 0.25, 1000 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			feed(l, set, edge1, nil, nil, 1)
			// Clean live verdicts from here on: the candidate cannot beat the
			// incumbent's zero rate, so it neither promotes nor rolls back.
			feed(l, set, clean, nil, constScores(0.9), 40)
			feed(l, set, clean, nil, constScores(0.3), 40)
			e := l.edges[1]
			if v, _ := e.shadow(); math.Abs(v-0.3) > 0.001 {
				t.Fatalf("estimate %v after the level shift, want ~0.3 (recent windows dominate)", v)
			}
			if e.n != 80 || e.evals != 80-shadowWarmup {
				t.Fatalf("absorbed %d scores over %d evaluations, want 80 over %d", e.n, e.evals, 80-shadowWarmup)
			}
		}},
		{"non-finite scores skip the shadow", func(c *tuning) { c.decayAlpha = 0.5 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			feed(l, set, edge1, nil, nil, 1)
			for _, s := range []float64{0.6, math.NaN(), math.Inf(-1)} {
				feed(l, set, edge1, nil, constScores(s), 1)
			}
			if v, _ := l.edges[1].shadow(); v != 0.6 || l.edges[1].n != 1 {
				t.Fatalf("shadow %v over %d scores, want 0.6 over 1", v, l.edges[1].n)
			}
		}},
		{"a rollback empties the shadow", func(c *tuning) { c.shadowMinEvals, c.shadowMaxEvals = 2, 2 }, func(t *testing.T, l *lifecycle, set *invariant.Set) {
			feed(l, set, edge1, nil, nil, 1)
			// Three warm-up scores, then two evaluations spend the budget.
			feed(l, set, clean, nil, constScores(0.8), shadowWarmup+2)
			e := l.edges[1]
			if _, ok := e.shadow(); ok || e.n != 0 || e.evals != 0 || !e.quarantined || l.rollbacks.Load() != 1 {
				t.Fatalf("after the budget: %+v, %d rollbacks; want a quarantined edge with an empty shadow", e, l.rollbacks.Load())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tu := quarantineShadow
			if tc.tune != nil {
				tc.tune(&tu)
			}
			useTuning(t, tu)
			l, set := &lifecycle{}, edgeSet()
			l.install(set)
			tc.run(t, l, set)
		})
	}
}

// TestLifecycleRestore holds restoredLifecycle to its checks on state read
// from a file: shadow history collapses, the sum clamps, and unknown states
// and pairs, and counts or tallies no lifecycle writes, are refused.
func TestLifecycleRestore(t *testing.T) {
	// A section saved from a driven lifecycle restores to itself.
	useTuning(t, quarantineShadow)
	driven, dset := &lifecycle{}, edgeSet()
	driven.install(dset)
	feed(driven, dset, []bool{false, true, false}, nil, nil, 1)
	feed(driven, dset, []bool{false, true, false}, nil, constScores(0.55), 5)
	saved := (&Profile{lc: driven}).lifecycleSection(dset)

	quarantined := func(mut func(*xmlstore.LifecycleEdge)) xmlstore.LifecycleEdge {
		e := xmlstore.LifecycleEdge{I: 0, J: 2, State: xmlstore.StateQuarantined, Obs: 9, Viol: 5, Rate: 0.4, Score: 1.5,
			ShadowBase: 0.42, ShadowN: 7, ShadowEvals: 2, ShadowViol: 1, LiveViol: 2}
		if mut != nil {
			mut(&e)
		}
		return e
	}
	section := func(edges ...xmlstore.LifecycleEdge) *xmlstore.LifecycleFile {
		return &xmlstore.LifecycleFile{Generation: 3, Observed: 9, Promotions: 1, Edges: edges}
	}
	cases := []struct {
		name    string
		f       *xmlstore.LifecycleFile
		wantErr string                                   // substring; "" restores
		check   func(t *testing.T, l *lifecycle, e edge) // e: the (0,2) record
	}{
		{"a saved section restores to itself", saved, "", func(t *testing.T, l *lifecycle, e edge) {
			if again := (&Profile{lc: l}).lifecycleSection(l.set); !reflect.DeepEqual(again, saved) {
				t.Fatalf("re-saved %+v, want %+v", again, saved)
			}
			got, _ := e.shadow()
			if want, _ := driven.edges[1].shadow(); got != want || e.n != driven.edges[1].n {
				t.Fatalf("restored shadow %v over %d scores, want %v over %d", got, e.n, want, driven.edges[1].n)
			}
		}},
		{"shadow history collapses into one weighted score", section(quarantined(nil)), "", func(t *testing.T, l *lifecycle, e edge) {
			want := edge{quarantined: true, obs: 9, viol: 5, rate: 0.4, sum: 1.5, num: 0.42, den: 1, n: 7, evals: 2, shadowViol: 1, liveViol: 2}
			if e != want {
				t.Fatalf("restored %+v, want %+v", e, want)
			}
			if l.gen != 3 || l.observed != 9 || l.promotions.Load() != 1 {
				t.Fatalf("counters gen %d observed %d promotions %d", l.gen, l.observed, l.promotions.Load())
			}
		}},
		{"a shadow with no scores restores empty", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.ShadowN = 0 })), "", func(t *testing.T, l *lifecycle, e edge) {
			if _, ok := e.shadow(); ok || e.n != 0 || !e.quarantined || e.evals != 2 {
				t.Fatalf("restored %+v, want an empty shadow keeping its tally", e)
			}
		}},
		{"a non-finite shadow base restores empty", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.ShadowBase = math.NaN() })), "", func(t *testing.T, l *lifecycle, e edge) {
			if _, ok := e.shadow(); ok || e.n != 0 {
				t.Fatalf("restored %+v, want an empty shadow", e)
			}
		}},
		{"a negative sum clamps to zero", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.Score = -5 })), "", func(t *testing.T, l *lifecycle, e edge) {
			if e.sum != 0 {
				t.Fatalf("sum %v, want 0", e.sum)
			}
		}},
		{"a non-finite sum clamps to zero", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.Score = math.Inf(1) })), "", func(t *testing.T, l *lifecycle, e edge) {
			if e.sum != 0 {
				t.Fatalf("sum %v, want 0", e.sum)
			}
		}},
		{"a live edge carries no shadow", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.State = xmlstore.StateLive })), "", func(t *testing.T, l *lifecycle, e edge) {
			if want := (edge{obs: 9, viol: 5, rate: 0.4, sum: 1.5}); e != want {
				t.Fatalf("restored %+v, want %+v", e, want)
			}
		}},
		{"a later entry replaces an earlier one", section(quarantined(nil), quarantined(func(e *xmlstore.LifecycleEdge) { e.State = xmlstore.StateLive })), "", func(t *testing.T, l *lifecycle, e edge) {
			if e.quarantined || e.n != 0 {
				t.Fatalf("restored %+v, want the later, live entry", e)
			}
		}},
		{"an unknown state is refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.State = "zombie" })), "unknown lifecycle edge state", nil},
		{"an unknown pair is refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.I, e.J = 2, 3 })), "unknown pair (2,3)", nil},
		{"more violations than observations are refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.Viol = 10 })), "inconsistent counts", nil},
		// A negative shadow tally would make the shadow rate negative and
		// promote the candidate on the next round; a negative evaluation
		// count would keep the candidate from rolling back for as many
		// windows.
		{"a negative shadow tally is refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.ShadowEvals, e.ShadowViol = 8, -100 })), "inconsistent shadow tally", nil},
		{"a negative live tally is refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.LiveViol = -1 })), "inconsistent shadow tally", nil},
		{"a negative evaluation count is refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.ShadowEvals, e.ShadowViol, e.LiveViol = -1000000, 0, 0 })), "inconsistent shadow tally", nil},
		{"more shadow violations than evaluations are refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.ShadowViol = 3 })), "inconsistent shadow tally", nil},
		{"more live violations than evaluations are refused", section(quarantined(func(e *xmlstore.LifecycleEdge) { e.LiveViol = 3 })), "inconsistent shadow tally", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := restoredLifecycle(edgeSet(), tc.f)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("restore error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			tc.check(t, l, l.edges[1])
		})
	}
	if _, err := restoredLifecycle(nil, section()); err == nil {
		t.Fatal("a section with no set to attach to restored")
	}
}

// quarantineShadow quarantines a violating edge on its first window and
// starts judging its shadow after the warm-up.
var quarantineShadow = func() tuning {
	tu := lifecycleTuning
	tu.minObservations, tu.drift, tu.threshold = 1, 0.1, 0.5
	return tu
}()

var updateLifecycleGolden = flag.Bool("update", false, "rewrite testdata/lifecycle-section.golden from the current code")

// TestLifecycleSectionGolden pins the bytes of a <lifecycle> section with
// two quarantined edges mid-evaluation: the golden was written before the
// lifecycle became one module, so the records, their arithmetic and the
// snapshot shape are held to the bits the separate health, change-point and
// decay types produced.
func TestLifecycleSectionGolden(t *testing.T) {
	ctx := Context{Workload: "wl", IP: "10.0.0.1"}
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1
	sys := trainValueSystem(t, cfg, ctx)
	p := sys.Profile(ctx)
	for i, v := range []float64{0.8, 0.8, 0.8, 0.2, 0.3, 0.25, 0.2, 0.35, 0.8} {
		if _, err := p.Violations(valueTrace([]float64{0.8, 0.8, v}, 16, float64(i)*1e-6)); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	if st := p.LifecycleStats(); st.Quarantined != 2 || st.Promotions != 0 || st.ShadowAge == 0 {
		t.Fatalf("stats %+v, want 2 quarantined edges with shadow progress and no promotion", st)
	}
	dir := t.TempDir()
	if err := sys.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(storePath(dir, ctx))
	if err != nil {
		t.Fatal(err)
	}
	start, end := bytes.Index(b, []byte("<lifecycle>")), bytes.Index(b, []byte("</lifecycle>"))
	if start < 0 || end < start {
		t.Fatalf("no <lifecycle> section in\n%s", b)
	}
	got := b[start : end+len("</lifecycle>")]
	golden := filepath.Join("testdata", "lifecycle-section.golden")
	if *updateLifecycleGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("<lifecycle> section:\n%s\nwant:\n%s", got, want)
	}
}
