package experiments

import (
	"fmt"
	"io"
	"strings"

	"invarnetx/internal/core"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/workload"
)

// The cross-node study pins the claim behind the spatio-temporal layer: the
// three cross-node fault classes are undiagnosable with intra-node
// invariants alone — the victim's own metrics only support a wrong-node,
// wrong-kind verdict — while cross-node, stage-scoped edges localise them to
// the (node, stage) actually responsible.
//
// Two arms share the same runs and the same CPI alert:
//
//   - the intra arm is the existing pipeline on the victim's profile, with
//     signatures for the classic single-node kinds the victim's symptoms
//     mimic (a legacy deployment that has never seen a cross fault);
//   - the cross arm windows each slave pair's joint trace to the stage the
//     alert fell in and merges the per-pair diagnoses to one (kind, node,
//     stage) verdict.

// crossConfusable is the intra arm's signature base: the single-node kinds
// whose victim-local symptoms shadow the cross faults (a starved reducer
// looks like a net fault, a stalled replication pipeline like a disk fault,
// a straggler's merge pressure like a CPU hog).
var crossConfusable = []faults.Kind{faults.CPUHog, faults.DiskHog, faults.NetDelay, faults.NetDrop}

// crossStage is the execution stage each cross fault's verdict should
// localise to — the stage that exercises the broken flow: a slow shuffle link
// bites while reducers pull, a skewed partition drags its straggler through
// the same shuffle rounds, and replication forwarding follows the map-side
// write stream.
var crossStage = map[faults.Kind]string{faults.XLink: "shuffle", faults.XSkew: "shuffle", faults.XRepl: "map"}

// CrossStudyRow is one cross fault's outcome under both arms.
type CrossStudyRow struct {
	Fault     faults.Kind
	Stage     string // expected stage
	VictimIP  string
	CulpritIP string
	Runs      int
	// Alerts is how many runs the victim's CPI monitor flagged.
	Alerts int
	// CrossCorrect: verdicts naming the right (kind, culprit node, stage).
	CrossCorrect int
	// CrossWrongNode: right kind, wrong node or stage.
	CrossWrongNode int
	// IntraNamed: alerts where the intra arm produced any root cause — all
	// wrong by construction (the victim is not the culprit for xlink and
	// xrepl, and no intra signature describes a cross kind), recorded so
	// the misattribution is visible.
	IntraNamed int
	// IntraVerdicts tallies what the intra arm called each alert.
	IntraVerdicts map[string]int
	// CrossVerdicts tallies the cross arm's merged verdicts per alert, as
	// "kind@node#stage" (or "(none)" when no pair profile matched).
	CrossVerdicts map[string]int
}

// CrossStudy is the result of RunCrossNodeStudy.
type CrossStudy struct {
	Workload workload.Type
	// TrainedProfiles is the number of (pair, stage) cross profiles holding
	// at least one edge after training.
	TrainedProfiles int
	// CrossEdges is the total trained cross-edge count.
	CrossEdges int
	Rows       []CrossStudyRow
}

// Print writes the study the way the paper prints its diagnosis tables: one
// row per cross fault, both arms side by side.
func (s *CrossStudy) Print(w io.Writer) {
	fmt.Fprintf(w, "Cross-node diagnosis (%s): %d (pair, stage) profiles, %d cross edges\n",
		s.Workload, s.TrainedProfiles, s.CrossEdges)
	for _, r := range s.Rows {
		fmt.Fprintf(w, "  %-6s culprit %s stage %-8s  alerts %d/%d  cross correct %d, wrong-node %d  intra named-a-cause %d (all wrong)\n",
			r.Fault, r.CulpritIP, r.Stage, r.Alerts, r.Runs, r.CrossCorrect, r.CrossWrongNode, r.IntraNamed)
		printTally(w, "cross", r.CrossVerdicts)
		printTally(w, "intra", r.IntraVerdicts)
	}
	fmt.Fprintf(w, "  cross recall over alerts: %.2f (intra recall 0 by construction)\n", s.CrossRecall())
}

// printTally prints a verdict tally in deterministic order.
func printTally(w io.Writer, arm string, m map[string]int) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "      %s %-32s x%d\n", arm, k, m[k])
	}
}

// CrossRecall returns the fraction of alerted runs the cross arm fully
// localised, across all rows.
func (s *CrossStudy) CrossRecall() float64 {
	alerts, hits := 0, 0
	for _, r := range s.Rows {
		alerts += r.Alerts
		hits += r.CrossCorrect
	}
	return ratio(hits, alerts)
}

// slavePairs enumerates the unordered slave IP pairs of the traces map.
func slavePairs(traces map[string]*metrics.Trace) [][2]string {
	ips := sortedKeys(traces)
	var out [][2]string
	for i := 0; i < len(ips); i++ {
		for j := i + 1; j < len(ips); j++ {
			out = append(out, [2]string{ips[i], ips[j]})
		}
	}
	return out
}

// stageWindow is the length, in samples, of a stage-aligned training or
// diagnosis window. Fixed-length windows keep MIC grid resolution (which
// depends on sample count) comparable between training and diagnosis; 10
// samples clears mic/invariant MinSamples with headroom while fitting the
// shortest simulated stage (a 12-tick shuffle round).
const stageWindow = 10

// crossWindows cuts stage-aligned joint windows from two nodes' traces: for
// every occurrence of the stage (per a's stage marks; both traces come from
// the same cluster timeline) whose span holds at least stageWindow samples,
// the first stageWindow ticks of both traces are joined over
// core.CrossMetricIdx.
func crossWindows(a, b *metrics.Trace, stage string) ([]*metrics.Trace, error) {
	var out []*metrics.Trace
	for _, w := range a.StageWindows() {
		if w.Stage != stage || w.Hi-w.Lo < stageWindow {
			continue
		}
		joint, err := joinSlice(a, b, w.Lo, w.Lo+stageWindow)
		if err != nil {
			return nil, fmt.Errorf("experiments: joining %s windows: %w", stage, err)
		}
		out = append(out, joint)
	}
	return out, nil
}

// crossWindowAt cuts the single stage-aligned joint diagnosis window
// containing tick: the stageWindow samples ending at tick, or the
// occurrence's first stageWindow samples when tick comes earlier than that,
// so the window always lies inside the stage. Returns nil when tick falls in
// no occurrence of the stage long enough to window.
func crossWindowAt(a, b *metrics.Trace, stage string, tick int) (*metrics.Trace, error) {
	for _, w := range a.StageWindows() {
		if w.Stage != stage || tick < w.Lo || tick >= w.Hi || w.Hi-w.Lo < stageWindow {
			continue
		}
		// tick < w.Hi and w.Lo+stageWindow <= w.Hi, so the window never
		// runs past the occurrence's end.
		lo := max(tick-stageWindow+1, w.Lo)
		return joinSlice(a, b, lo, lo+stageWindow)
	}
	return nil, nil
}

// joinSlice slices both traces to [lo, hi) and joins them over
// core.CrossMetricIdx.
func joinSlice(a, b *metrics.Trace, lo, hi int) (*metrics.Trace, error) {
	as, err := a.Slice(lo, hi)
	if err != nil {
		return nil, err
	}
	bs, err := b.Slice(lo, hi)
	if err != nil {
		return nil, err
	}
	return metrics.JoinTraces(as, bs, core.CrossMetricIdx)
}

// spatialVerdict is the cross arm's answer for one alert: the diagnosed
// fault kind (the signature label with its culprit suffix stripped), the
// culprit node and the execution stage it localises to.
type spatialVerdict struct {
	problem, node, stage string
}

// mergeCrossDiagnoses reduces the per-pair cross diagnoses of one alert to a
// single verdict: the diagnosis with the highest confidence wins. Confidence
// is per-pair signature similarity, so the pair whose joint window most
// precisely reproduces a stored fingerprint decides — summing votes across
// pairs would let several weak noise matches outvote one sharp one. Ties
// break by context string for determinism. Cross labels read "kind@node"
// (split at the last '@'); a label without one names no node. Returns nil
// when no diagnosis names a cause.
func mergeCrossDiagnoses(diags []*core.Diagnosis) *spatialVerdict {
	var top *core.Diagnosis
	for _, d := range diags {
		if d == nil || d.RootCause() == "" {
			continue
		}
		if top == nil || d.Confidence > top.Confidence ||
			(d.Confidence == top.Confidence && d.Context.String() < top.Context.String()) {
			top = d
		}
	}
	if top == nil {
		return nil
	}
	key, _ := core.ParseCrossContext(top.Context)
	kind, node := top.RootCause(), ""
	if i := strings.LastIndexByte(kind, '@'); i >= 0 {
		kind, node = kind[:i], kind[i+1:]
	}
	return &spatialVerdict{problem: kind, node: node, stage: key.Stage}
}

// crossDiagnose runs the cross arm for one alert: window every trained pair
// profile of the alert's stage around the alert tick and merge the per-pair
// diagnoses. keys is the trained cross-profile set.
func crossDiagnose(sys *core.System, keys []core.CrossKey, traces map[string]*metrics.Trace, stage string, alertTick int) (*spatialVerdict, error) {
	var diags []*core.Diagnosis
	for _, key := range keys {
		if key.Stage != stage {
			continue
		}
		a, b := traces[key.NodeA], traces[key.NodeB]
		if a == nil || b == nil {
			continue
		}
		win, err := crossWindowAt(a, b, stage, alertTick)
		if err != nil {
			return nil, err
		}
		if win == nil {
			continue
		}
		d, err := sys.Diagnose(key.Context(), win)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d)
	}
	return mergeCrossDiagnoses(diags), nil
}

// crossRows generates the study's three row sets: label runs of the
// confusable single-node kinds (the intra arm's signature base, investigated
// on the victim node as usual), investigated cross-fault runs (the cross arm's
// signature base, windowed from the alert like the test runs), and the
// held-out cross-fault runs both arms are scored on, kind-major.
func (r *Runner) crossRows(w workload.Type) (label, investigated, test []Scenario) {
	cross := Scenario{Study: r.arm("crossnode"), Workload: w, Cross: true, Origin: Alert}
	return r.LabelRows("crossnode", w, crossConfusable...),
		grid(cross, faults.CrossKinds(), freshBase, r.opts.SignatureRuns),
		grid(cross, faults.CrossKinds(), 0, r.opts.RunsPerFault-r.opts.SignatureRuns)
}

// RunCrossNodeStudy executes the two-arm cross-node diagnosis experiment on
// batch workload w. Requires Options.CrossTraffic (the inter-node flows the
// cross edges couple).
func (r *Runner) RunCrossNodeStudy(w workload.Type) (*CrossStudy, error) {
	if !r.opts.CrossTraffic {
		return nil, fmt.Errorf("experiments: cross-node study requires Options.CrossTraffic")
	}
	if workload.IsInteractive(w) {
		return nil, fmt.Errorf("experiments: cross-node study runs on batch workloads")
	}
	sys, trainRuns, err := r.TrainSystem(w)
	if err != nil {
		return nil, err
	}

	// Cross training: stage-aligned joint windows of every slave pair over
	// the same normal runs, one profile per (pair, stage). Stages whose
	// occurrences are shorter than the window (a small job's reduce tail)
	// simply train no profile.
	var keys []core.CrossKey
	totalEdges := 0
	for _, pair := range slavePairs(trainRuns[0].Traces) {
		for _, stage := range []string{"map", "shuffle", "reduce"} {
			key := core.NewCrossKey(string(w), pair[0], pair[1], stage)
			var windows []*metrics.Trace
			for _, res := range trainRuns {
				ws, err := crossWindows(res.Traces[key.NodeA], res.Traces[key.NodeB], stage)
				if err != nil {
					return nil, err
				}
				windows = append(windows, ws...)
			}
			if len(windows) < 2 {
				continue
			}
			if err := sys.TrainInvariants(key.Context(), windows); err != nil {
				return nil, fmt.Errorf("experiments: training %s: %w", key, err)
			}
			set, err := sys.Invariants(key.Context())
			if err != nil {
				return nil, err
			}
			if set.Len() == 0 {
				continue
			}
			keys = append(keys, key)
			totalEdges += set.Len()
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("experiments: no cross edges survived training")
	}

	label, investigated, test := r.crossRows(w)
	if err := r.Label(sys, label); err != nil {
		return nil, err
	}

	// Cross arm's signature base: each investigated run is windowed to the
	// alert's stage on every trained pair profile that actually registered
	// violations (near-empty tuples are never stored — two empty tuples are
	// trivially similar).
	for _, sc := range investigated {
		o, err := r.Observe(sys, sc)
		if err != nil {
			return nil, err
		}
		if o.Status == Undetected {
			continue
		}
		res, tick := o.Run, o.AlertTick
		stage := res.TargetTrace().StageAt(tick)
		for _, key := range keys {
			if key.Stage != stage {
				continue
			}
			// A cross fault fingerprints the flows touching the culprit
			// and victim; violations on bystander pairs are shuffle
			// noise, and a signature stored there matches the wrong
			// kind's noise just as well.
			if key.NodeA != res.CulpritIP && key.NodeB != res.CulpritIP &&
				key.NodeA != res.TargetIP && key.NodeB != res.TargetIP {
				continue
			}
			win, err := crossWindowAt(res.Traces[key.NodeA], res.Traces[key.NodeB], stage, tick)
			if err != nil || win == nil {
				continue
			}
			// One-edge tuples are degenerate signatures: a single
			// chance violation at diagnosis time matches them with
			// Jaccard 1.0, so demand at least two broken edges.
			vr, err := sys.Violations(key.Context(), win)
			if err != nil || len(vr.Violated) < 2 {
				continue
			}
			label := o.Scenario.Truth() + "@" + res.CulpritIP
			if err := sys.BuildSignature(key.Context(), label, win); err != nil {
				return nil, err
			}
		}
	}

	// Test runs: the same alert feeds both arms. Observe is the intra arm —
	// the victim's own profile, classic signatures.
	study := &CrossStudy{Workload: w, TrainedProfiles: len(keys), CrossEdges: totalEdges}
	testRuns := len(test) / len(faults.CrossKinds())
	for ki, kind := range faults.CrossKinds() {
		row := CrossStudyRow{
			Fault:         kind,
			Stage:         crossStage[kind],
			Runs:          testRuns,
			IntraVerdicts: make(map[string]int),
			CrossVerdicts: make(map[string]int),
		}
		for _, sc := range test[ki*testRuns : (ki+1)*testRuns] {
			o, err := r.Observe(sys, sc)
			if err != nil {
				return nil, err
			}
			res, tick := o.Run, o.AlertTick
			row.VictimIP, row.CulpritIP = res.TargetIP, res.CulpritIP
			switch o.Status {
			case Undetected:
				continue
			case Diagnosed:
				row.IntraNamed++
				row.IntraVerdicts[o.Predicted()+"@"+res.TargetIP]++
			case HintsOnly:
				row.IntraVerdicts["(hints only)"]++
			}
			row.Alerts++

			// Cross arm: stage-scoped pair profiles, merged verdict.
			verdict, err := crossDiagnose(sys, keys, res.Traces, res.TargetTrace().StageAt(tick), tick)
			if err != nil {
				return nil, err
			}
			if verdict == nil {
				row.CrossVerdicts["(none)"]++
			} else {
				row.CrossVerdicts[verdict.problem+"@"+verdict.node+"#"+verdict.stage]++
				if verdict.problem == string(kind) {
					if verdict.node == res.CulpritIP && verdict.stage == row.Stage {
						row.CrossCorrect++
					} else {
						row.CrossWrongNode++
					}
				}
			}
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}
