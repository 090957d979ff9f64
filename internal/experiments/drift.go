package experiments

import (
	"fmt"
	"io"

	"invarnetx/internal/core"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
	"invarnetx/internal/xmlstore"
)

// The drift study is the lifecycle's evaluation harness: a synthetic
// deployment whose metric couplings shift permanently mid-trace —
// nonstationarity, not a fault — run through two otherwise identical
// InvarNet-X arms. The train-once arm keeps trusting its original
// invariants and turns the shift into a permanent stream of false
// positives; the lifecycle arm quarantines the drifted edges, re-estimates
// their baselines from post-shift traffic and promotes the shadow
// generation, restoring pre-drift precision without a retraining pass.
// Genuine faults (short coupling bursts on a *different* metric) are
// interleaved throughout, so the study also checks that the change-point
// separation keeps bursts diagnosable and never quarantines them. The
// lifecycle arm runs core's one lifecycle tuning: this study is the
// measurement that vets it.

// driftPhaseLens are the pre-shift, shift and post-shift phase lengths in
// diagnosis windows; the coupling shift lands at the pre/shift boundary and
// is permanent. Every driftFaultEvery-th window of every phase carries one
// single-window fault burst.
var driftPhaseLens = [...]int{30, 40, 30}

const (
	driftFaultEvery = 6
	// The study's size: coupled metrics (15 trained edges), samples per
	// diagnosis window, clean training windows.
	driftMetrics   = 6
	driftWindowLen = 100
	driftTrainRuns = 4
)

// DriftPhaseStats is one arm's window-level outcome over one phase.
type DriftPhaseStats struct {
	Name string
	// CleanWindows/FaultWindows partition the phase; CleanFlagged of the
	// former reported at least one violation (false positives), and
	// FaultFlagged of the latter did (true positives).
	CleanWindows, FaultWindows int
	CleanFlagged, FaultFlagged int
}

// counts reads the phase as a one-label tally: a flagged fault window is a
// true positive, a flagged clean window a false positive.
func (s DriftPhaseStats) counts() PRCounts {
	return PRCounts{TP: s.FaultFlagged, FP: s.CleanFlagged, FN: s.FaultWindows - s.FaultFlagged}
}

// FPRate is the fraction of clean windows that reported a violation.
func (s DriftPhaseStats) FPRate() float64 { return ratio(s.CleanFlagged, s.CleanWindows) }

// Recall is the fraction of injected fault windows that were flagged.
func (s DriftPhaseStats) Recall() float64 { return s.counts().Recall() }

// Precision is flagged-fault / all-flagged over the phase.
func (s DriftPhaseStats) Precision() float64 { return s.counts().Precision() }

// DriftArm is one system's trajectory through the three phases.
type DriftArm struct {
	Name             string
	Pre, Shift, Post DriftPhaseStats
	// Lifecycle trajectory (zero for the train-once arm): peak quarantined
	// edge count, shadow generations promoted/rolled back, final model
	// generation — and QuarantineLeaks, the number of violation reports
	// naming a quarantined pair, which the masking contract pins at zero.
	PeakQuarantined       int
	Promotions, Rollbacks int64
	FinalGeneration       uint64
	QuarantineLeaks       int
}

// DriftStudy compares train-once and lifecycle-enabled arms over the same
// drifting trace.
type DriftStudy struct {
	TrainOnce DriftArm
	Lifecycle DriftArm
}

// Print writes each arm's per-phase false-positive rate, precision, recall.
func (s *DriftStudy) Print(w io.Writer) {
	fmt.Fprintf(w, "drift study (coupling shift at pre/shift boundary):\n")
	for _, arm := range []*DriftArm{&s.TrainOnce, &s.Lifecycle} {
		fmt.Fprintf(w, "  %-10s", arm.Name)
		for _, ph := range []*DriftPhaseStats{&arm.Pre, &arm.Shift, &arm.Post} {
			fmt.Fprintf(w, "  %s: FP %.2f P %.2f R %.2f", ph.Name, ph.FPRate(), ph.Precision(), ph.Recall())
		}
		if arm.Promotions+int64(arm.PeakQuarantined) > 0 {
			fmt.Fprintf(w, "  [quarantined %d, promoted %d, rolled back %d, gen %d]",
				arm.PeakQuarantined, arm.Promotions, arm.Rollbacks, arm.FinalGeneration)
		}
		fmt.Fprintln(w)
	}
}

// driftGen synthesises coupled-metric windows: every metric rides one
// latent factor per sample unless decoupled, in which case it is
// independent noise — which moves the MIC *strength* of its pairs, the
// kind of change MIC can see (a monotone rescaling would be invisible).
type driftGen struct {
	rng  *stats.RNG
	m, n int
}

func (g *driftGen) window(decoupled map[int]bool) *metrics.Trace {
	rows := make([][]float64, g.m)
	for i := range rows {
		rows[i] = make([]float64, g.n)
	}
	for s := 0; s < g.n; s++ {
		latent := g.rng.Float64()
		for i := 0; i < g.m; i++ {
			if decoupled[i] {
				rows[i][s] = g.rng.Float64()
			} else {
				rows[i][s] = float64(i+1)*latent + g.rng.Normal(0, 0.02)
			}
		}
	}
	return &metrics.Trace{Rows: rows, Ticks: g.n}
}

// driftWindow is one scheduled diagnosis window, shared by both arms.
type driftWindow struct {
	tr    *metrics.Trace
	fault bool
	phase int // 0 pre, 1 shift, 2 post
}

// runDriftStudy trains both arms on the same clean runs, then feeds both
// the same drifting window schedule and scores each phase. seed drives the
// synthetic telemetry.
func runDriftStudy(seed int64) (*DriftStudy, error) {
	// One shared corpus: training runs and the three-phase schedule.
	gen := &driftGen{rng: stats.NewRNG(seed).Fork(1), m: driftMetrics, n: driftWindowLen}
	var trainRuns []*metrics.Trace
	for r := 0; r < driftTrainRuns; r++ {
		trainRuns = append(trainRuns, gen.window(nil))
	}
	const (
		driftMetric = driftMetrics - 1 // shifts permanently at the boundary
		faultMetric = 1                // bursts for one window at a time
	)
	var schedule []driftWindow
	for phase, n := range driftPhaseLens {
		for i := 0; i < n; i++ {
			dec := map[int]bool{}
			if phase > 0 {
				dec[driftMetric] = true
			}
			fault := (i+1)%driftFaultEvery == 0
			if fault {
				dec[faultMetric] = true
			}
			schedule = append(schedule, driftWindow{tr: gen.window(dec), fault: fault, phase: phase})
		}
	}

	study := &DriftStudy{}
	var err error
	if study.TrainOnce, err = runDriftArm("train-once", false, trainRuns, schedule); err != nil {
		return nil, err
	}
	if study.Lifecycle, err = runDriftArm("lifecycle", true, trainRuns, schedule); err != nil {
		return nil, err
	}
	return study, nil
}

func runDriftArm(name string, lifecycle bool, trainRuns []*metrics.Trace, schedule []driftWindow) (arm DriftArm, err error) {
	cfg := core.DefaultConfig()
	cfg.Lifecycle = lifecycle
	sys := core.New(cfg)
	ctx := core.Context{Workload: "drift", IP: "10.0.0.1"}
	if err := sys.TrainInvariants(ctx, trainRuns); err != nil {
		return arm, fmt.Errorf("experiments: drift arm %s: %w", name, err)
	}
	p := sys.Profile(ctx)
	arm.Name = name
	arm.Pre.Name, arm.Shift.Name, arm.Post.Name = "pre", "shift", "post"
	phases := []*DriftPhaseStats{&arm.Pre, &arm.Shift, &arm.Post}
	for _, w := range schedule {
		rep, err := p.Violations(w.tr)
		if err != nil {
			return arm, fmt.Errorf("experiments: drift arm %s: %w", name, err)
		}
		flagged := len(rep.Violated) > 0
		ph := phases[w.phase]
		if w.fault {
			ph.FaultWindows++
			if flagged {
				ph.FaultFlagged++
			}
		} else {
			ph.CleanWindows++
			if flagged {
				ph.CleanFlagged++
			}
		}
		if lifecycle {
			st := p.LifecycleStats()
			arm.PeakQuarantined = max(arm.PeakQuarantined, st.Quarantined)
			if st.Quarantined > 0 && flagged {
				// The masking contract: a violated pair must never be a
				// quarantined one.
				quarantined := map[invariant.Pair]bool{}
				for _, e := range p.LifecycleEdges() {
					if e.State == xmlstore.StateQuarantined {
						quarantined[invariant.Pair{I: e.I, J: e.J}] = true
					}
				}
				for _, pr := range rep.Violated {
					if quarantined[pr] {
						arm.QuarantineLeaks++
					}
				}
			}
		}
	}
	st := p.LifecycleStats()
	arm.Promotions = st.Promotions
	arm.Rollbacks = st.Rollbacks
	arm.FinalGeneration = st.Generation
	return arm, nil
}
