package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"invarnetx/internal/core"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/stats"
	"invarnetx/internal/telemetry"
	"invarnetx/internal/workload"
)

// The paper's evaluation is one procedure — train on normal runs, label a
// few investigated runs of each fault, detect on CPI drift, diagnose the
// post-alert window, tally — so every diagnosis study is the same steps over
// different rows: Label builds the signature base, Observe monitors, windows
// and diagnoses a run, and a Tally reads the outcomes. A study is a row
// generator plus a read-out of its tally.

// Origin says where a run's diagnosis window starts.
type Origin int

const (
	// Oracle starts the window at the ground-truth fault start: the problem
	// was investigated, as it is for every run that labels a signature.
	Oracle Origin = iota
	// Alert starts it where the online system would: at the CPI monitor's
	// alert, backed off by the consecutive-violation rule.
	Alert
)

func (o Origin) String() string { return [...]string{"oracle", "alert"}[o] }

// Scenario is one row of a study: pure data naming a run and how the
// pipeline gets to see it.
type Scenario struct {
	// Study tags the study arm the row belongs to. It is part of the ID, so
	// the same run observed by two studies stays two rows.
	Study    string
	Workload workload.Type
	// Faults are injected on the target node: none for a normal run, one for
	// the paper's single-fault runs, two for simultaneous faults.
	Faults []faults.Kind
	// Cross marks Faults[0] as a cross-node kind (culprit and victim differ).
	Cross bool
	// Index selects the run: it seeds the simulation and, under
	// Options.RotateTargets, picks the target node.
	Index  int
	Origin Origin
	// Telemetry, when set, sends what the pipeline reads through a lossy
	// agent seeded with Options.Seed + TelemetrySalt and the daemon's ingest
	// path: the whole stream for an Alert row (the monitor reads it live),
	// the investigated window alone for an Oracle row.
	Telemetry     *telemetry.FaultModel
	TelemetrySalt int64
}

// Truth is the ground-truth label the row is scored against: the injected
// fault, "a+b" for simultaneous faults, "" for a normal run.
func (s Scenario) Truth() string {
	names := make([]string, len(s.Faults))
	for i, k := range s.Faults {
		names[i] = string(k)
	}
	return strings.Join(names, "+")
}

// ID names the row deterministically from its data alone, so a result keyed
// by it means the same run on every execution.
func (s Scenario) ID() string {
	truth := s.Truth()
	switch {
	case truth == "":
		truth = "normal"
	case s.Cross:
		truth = "cross:" + truth
	}
	id := fmt.Sprintf("%s/%s/%s/%d/%s", s.Study, s.Workload, truth, s.Index, s.Origin)
	if s.Telemetry != nil {
		id += fmt.Sprintf("/telemetry=%+v#%d", *s.Telemetry, s.TelemetrySalt)
	}
	return id
}

// Status says how far the pipeline got on one row. The two non-answers are
// recorded as what they are rather than as an empty prediction.
type Status string

const (
	Diagnosed  Status = "diagnosed"  // a window was diagnosed and a cause ranked
	Undetected Status = "undetected" // the CPI monitor never fired
	HintsOnly  Status = "hints-only" // diagnosed, but no stored signature was similar
)

// Outcome is what Observe saw on one row.
type Outcome struct {
	Scenario Scenario
	Status   Status
	// AlertTick is the monitor's alert tick, −1 when it never fired or the
	// row's origin is Oracle.
	AlertTick int
	// Context is the operation context the run was observed under: the
	// target node's (slave 0 for a normal run).
	Context core.Context
	// Diagnosis holds the ranked causes, coverage and confidence; nil when
	// Undetected.
	Diagnosis *core.Diagnosis
	// Run is the simulated run behind the verdict. observeAll drops it: a
	// study keeps verdicts, not every node's trace of every run.
	Run *RunResult
	// Genuine is the fraction of metric samples that arrived valid and Lost
	// the number of metric and CPI entries the agent sent invalid (both zero
	// unless the row sets Telemetry).
	Genuine float64
	Lost    int
}

// Predicted returns the top-ranked cause, "" for either non-answer.
func (o Outcome) Predicted() string {
	if o.Diagnosis == nil {
		return ""
	}
	return o.Diagnosis.RootCause()
}

// hit reports whether the k top-ranked causes all name injected faults.
func (o Outcome) hit(k int) bool {
	if o.Diagnosis == nil || k < 1 || k > len(o.Diagnosis.Causes) {
		return false
	}
	for _, c := range o.Diagnosis.Causes[:k] {
		if !slices.Contains(o.Scenario.Faults, faults.Kind(c.Problem)) {
			return false
		}
	}
	return true
}

// monWarmup is the number of initial CPI samples used to seed the online
// monitor (must cover the ARIMA lag depth and precede FaultStart).
const monWarmup = 6

// run executes the row's simulation.
func (r *Runner) run(sc Scenario) (*RunResult, error) {
	switch {
	case sc.Cross && len(sc.Faults) == 1:
		return r.RunCross(sc.Workload, sc.Faults[0], sc.Index)
	case sc.Cross || len(sc.Faults) > 2:
		return nil, fmt.Errorf("experiments: %s: unsupported fault combination", sc.ID())
	case len(sc.Faults) == 2:
		return r.runPair(sc.Workload, sc.Faults[0], sc.Faults[1], sc.Index)
	case len(sc.Faults) == 1:
		return r.Run(sc.Workload, sc.Faults[0], sc.Index)
	}
	return r.Run(sc.Workload, "", sc.Index)
}

// evidence executes sc and cuts the window the pipeline reads. The window is
// nil when the row waits for an alert that never comes.
func (r *Runner) evidence(sys *core.System, sc Scenario) (Outcome, *metrics.Trace, error) {
	res, err := r.run(sc)
	if err != nil {
		return Outcome{}, nil, err
	}
	ip := cmp.Or(res.TargetIP, firstSlaveIP)
	out := Outcome{
		Scenario:  sc,
		Status:    Undetected,
		AlertTick: -1,
		Context:   core.Context{Workload: string(sc.Workload), IP: ip},
		Run:       res,
	}
	// collect sends a trace through the row's lossy agent and the daemon's
	// ingest path (a no-op without one): a lost entry comes back NaN and
	// flagged invalid. A row calls it once: on the stream or on the window.
	collect := func(tr *metrics.Trace) (*metrics.Trace, error) {
		if sc.Telemetry == nil {
			return tr, nil
		}
		samples := sc.Telemetry.Samples(tr, stats.NewRNG(r.opts.Seed+sc.TelemetrySalt))
		deg, err := server.TraceFromSamples(tr.Context, tr.NodeIP, samples)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			for _, ok := range s.Valid {
				if !ok {
					out.Lost++
				}
			}
			if !*s.CPIValid {
				out.Lost++
			}
		}
		out.Genuine = deg.ValidFraction()
		return deg, nil
	}

	tr, from := res.Traces[ip], res.Window.Start
	if tr == nil || (sc.Origin == Alert && tr.Len() <= monWarmup) {
		return out, nil, fmt.Errorf("experiments: %s: run produced no usable trace", sc.ID())
	}
	if sc.Origin == Alert {
		if tr, err = collect(tr); err != nil {
			return out, nil, err
		}
		det, err := sys.Detector(r.scope(out.Context))
		if err != nil {
			return out, nil, err
		}
		// A lost CPI reading is NaN, which the monitor skips as a gap — the
		// daemon's cpiObserved.
		mon := det.NewMonitor(tr.CPI[:monWarmup])
		for i := monWarmup; i < len(tr.CPI) && out.AlertTick < 0; i++ {
			mon.Offer(tr.CPI[i])
			if mon.Alert() {
				out.AlertTick = i
			}
		}
		if out.AlertTick < 0 {
			return out, nil, nil
		}
		// Diagnose from the start of the anomalous stretch: the consecutive
		// rule means the problem began Consecutive-1 samples earlier.
		from = out.AlertTick - (det.Consecutive - 1)
	}
	win, err := AbnormalWindow(tr, from, r.opts.FaultTicks)
	if err == nil && sc.Origin == Oracle {
		win, err = collect(win)
	}
	return out, win, err
}

// Label builds the signature base — the only place one is built: every row
// is an investigated single-fault run whose window is stored under the
// fault's name in the target node's context.
func (r *Runner) Label(sys *core.System, rows []Scenario) error {
	for _, sc := range rows {
		if len(sc.Faults) != 1 || sc.Cross {
			return fmt.Errorf("experiments: %s: a label row injects exactly one single-node fault", sc.ID())
		}
		out, win, err := r.evidence(sys, sc)
		if err != nil {
			return err
		}
		if win == nil {
			return fmt.Errorf("experiments: %s: label run never tripped the detector", sc.ID())
		}
		if err := sys.BuildSignature(r.scope(out.Context), sc.Truth(), win); err != nil {
			return err
		}
	}
	return nil
}

// Observe runs the online path on one row — the only place a run is
// monitored, windowed and diagnosed. The diagnosis names the row's context
// even when the no-context arm answered it from the zero-Context profile.
func (r *Runner) Observe(sys *core.System, sc Scenario) (Outcome, error) {
	out, win, err := r.evidence(sys, sc)
	if err != nil || win == nil {
		return out, err
	}
	if out.Diagnosis, err = sys.Diagnose(r.scope(out.Context), win); err != nil {
		return out, err
	}
	out.Diagnosis.Context = out.Context
	out.Status = HintsOnly
	if len(out.Diagnosis.Causes) > 0 {
		out.Status = Diagnosed
	}
	return out, nil
}

// observeAll observes rows in order and tallies the outcomes.
func (r *Runner) observeAll(sys *core.System, rows []Scenario) (Tally, error) {
	outs := make(Tally, 0, len(rows))
	for _, sc := range rows {
		out, err := r.Observe(sys, sc)
		if err != nil {
			return nil, err
		}
		out.Run = nil
		outs = append(outs, out)
	}
	return outs, nil
}

// trainLabelObserve is the whole evaluation procedure for one workload: train
// on normal runs, label, observe.
func (r *Runner) trainLabelObserve(w workload.Type, label, test []Scenario) (*core.System, Tally, error) {
	sys, _, err := r.TrainSystem(w)
	if err != nil {
		return nil, nil, err
	}
	if err := r.Label(sys, label); err != nil {
		return nil, nil, err
	}
	outs, err := r.observeAll(sys, test)
	return sys, outs, err
}

// Run-index bases. Label runs sit far above any test index so the two never
// share a simulation; the contrast and cross-signature runs get their own
// range for the same reason.
const (
	labelBase = 100000
	freshBase = 2 * labelBase
)

// arm tags a study's rows. Rotating targets changes which node every fault
// run hits, so it is part of the arm's name.
func (r *Runner) arm(study string) string {
	if r.opts.RotateTargets {
		return study + "+rotate"
	}
	return study
}

// grid expands tmpl over kinds × n runs: one row per (kind, i) at index
// base+i, kind-major.
func grid(tmpl Scenario, kinds []faults.Kind, base, n int) []Scenario {
	rows := make([]Scenario, 0, len(kinds)*max(n, 0))
	for _, kind := range kinds {
		for i := 0; i < n; i++ {
			sc := tmpl
			sc.Faults, sc.Index = []faults.Kind{kind}, base+i
			rows = append(rows, sc)
		}
	}
	return rows
}

// LabelRows generates the investigated runs that label kinds under w: the
// paper uses 2 of each fault's 40 runs, with the fault window known.
func (r *Runner) LabelRows(study string, w workload.Type, kinds ...faults.Kind) []Scenario {
	return r.labelRows(study, w, kinds, 1)
}

// labelRows is LabelRows with the index stride between a kind's label runs
// spelled out: the Figs. 7-10 study spaces them Slaves apart (its run index
// doubles as the rotated-target selector), every other study by 1. The index
// seeds the run, so both are kept. With rotating targets every study needs
// the per-node form: signatures are stored per operation context, so each
// node a test run can land on needs its own investigated runs.
func (r *Runner) labelRows(study string, w workload.Type, kinds []faults.Kind, stride int) []Scenario {
	nodes := 1
	if r.opts.RotateTargets {
		nodes, stride = r.opts.Slaves, r.opts.Slaves
	}
	var rows []Scenario
	for _, kind := range kinds {
		for node := 0; node < nodes; node++ {
			for i := 0; i < r.opts.SignatureRuns; i++ {
				rows = append(rows, Scenario{
					Study:    r.arm(study),
					Workload: w,
					Faults:   []faults.Kind{kind},
					Index:    labelBase + i*stride + node,
					Origin:   Oracle,
				})
			}
		}
	}
	return rows
}
