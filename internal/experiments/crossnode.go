package experiments

import (
	"fmt"
	"io"
	"strings"

	"invarnetx/internal/core"
	"invarnetx/internal/faults"
	"invarnetx/internal/invariant"
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
//
// A cross edge couples a metric on node A with a metric on node B during one
// execution stage: (metricA@nodeA, metricB@nodeB, stage). The cross layer is
// this file alone. Its profiles are ordinary core profiles whose context IP
// encodes the pair and stage ("nodeA~nodeB#stage"), trained on joint windows
// — crossMetricIdx of both nodes over the same stage-aligned ticks — with
// only the node-spanning pairs kept. core, metrics and the daemon know
// nothing of either: to them a joint window is a 22-metric trace like any
// other, and its hints are named m<i>-m<j>. Problem labels carry the culprit
// node ("xlink@10.0.0.3"), so a match on any pair profile recovers the
// (node, stage) localisation.

// crossMetricIdx selects the per-node metrics that participate in cross
// edges: the flow metrics (disk and network directions, their latency and
// retransmission shadows) plus the compute-pressure metrics a straggler
// drags. Keeping the joint space at 2×11 metrics bounds training to 121
// spanning candidate pairs per (workload, pair, stage) — comparable to one
// intra profile's 325.
var crossMetricIdx = []int{
	0,  // cpu.user
	3,  // cpu.iowait
	6,  // load.runq
	12, // disk.readmb
	13, // disk.writemb
	15, // disk.util
	16, // disk.queue
	17, // net.rxmb
	18, // net.txmb
	21, // net.retransmits
	22, // net.rttms
}

// spanning is the cross profiles' training predicate: only pairs that span
// the two nodes' halves of the joint space. Within-node pairs duplicate the
// intra-node profiles' work and would dilute cross signatures with tuples
// the single-node layer already owns.
func spanning(pr invariant.Pair) bool {
	k := len(crossMetricIdx)
	return pr.I < k && pr.J >= k
}

// crossKey identifies one cross profile: workload, unordered node pair and
// execution stage.
type crossKey struct {
	workload     string
	nodeA, nodeB string // nodeA < nodeB
	stage        string
}

// newCrossKey builds a key with the node pair put in canonical order.
func newCrossKey(workload, nodeA, nodeB, stage string) crossKey {
	if nodeB < nodeA {
		nodeA, nodeB = nodeB, nodeA
	}
	return crossKey{workload: workload, nodeA: nodeA, nodeB: nodeB, stage: stage}
}

// context returns the cross profile's registry context: IP "nodeA~nodeB#stage".
func (k crossKey) context() core.Context {
	return core.Context{Workload: k.workload, IP: k.nodeA + "~" + k.nodeB + "#" + k.stage}
}

// String renders the key for errors: "sort 10.0.0.2~10.0.0.3 #reduce".
func (k crossKey) String() string {
	return fmt.Sprintf("%s %s~%s #%s", k.workload, k.nodeA, k.nodeB, k.stage)
}

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

// crossWindows cuts stage-aligned joint windows from two nodes' traces of
// one run, whose stage timeline is tl: for every occurrence of the stage
// whose span holds at least stageWindow samples, the first stageWindow ticks
// of both traces are joined.
func crossWindows(a, b *metrics.Trace, tl timeline, stage string) ([]*metrics.Trace, error) {
	var out []*metrics.Trace
	for _, w := range tl {
		if w.stage != stage || w.hi-w.lo < stageWindow {
			continue
		}
		joint, err := joinSlice(a, b, w.lo, w.lo+stageWindow)
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
func crossWindowAt(a, b *metrics.Trace, tl timeline, stage string, tick int) (*metrics.Trace, error) {
	for _, w := range tl {
		if w.stage != stage || tick < w.lo || tick >= w.hi || w.hi-w.lo < stageWindow {
			continue
		}
		// tick < w.hi and w.lo+stageWindow <= w.hi, so the window never
		// runs past the occurrence's end.
		lo := max(tick-stageWindow+1, w.lo)
		return joinSlice(a, b, lo, lo+stageWindow)
	}
	return nil, nil
}

// joinSlice slices both traces to [lo, hi) and joins them.
func joinSlice(a, b *metrics.Trace, lo, hi int) (*metrics.Trace, error) {
	as, err := a.Slice(lo, hi)
	if err != nil {
		return nil, err
	}
	bs, err := b.Slice(lo, hi)
	if err != nil {
		return nil, err
	}
	return joinTraces(as, bs)
}

// joinTraces builds the joint two-node trace: row i carries metric
// crossMetricIdx[i] of a and row K+i the same metric of b (K =
// len(crossMetricIdx)). Both traces must be equally long; validity masks are
// kept per side, and a joint mask is materialised when either side carries
// one. The CPI column is a's (cross profiles train on rows only).
func joinTraces(a, b *metrics.Trace) (*metrics.Trace, error) {
	if a.Ticks != b.Ticks {
		return nil, fmt.Errorf("experiments: joining traces of %d and %d ticks", a.Ticks, b.Ticks)
	}
	k := len(crossMetricIdx)
	if len(a.Rows) < metrics.Count || len(b.Rows) < metrics.Count {
		return nil, fmt.Errorf("experiments: joining traces of %d and %d metrics, want %d", len(a.Rows), len(b.Rows), metrics.Count)
	}
	out := metrics.NewTraceWidth(a.NodeIP+"~"+b.NodeIP, a.Context, 2*k)
	for i, m := range crossMetricIdx {
		out.Rows[i] = append([]float64(nil), a.Rows[m][:a.Ticks]...)
		out.Rows[k+i] = append([]float64(nil), b.Rows[m][:b.Ticks]...)
	}
	out.CPI = append([]float64(nil), a.CPI...)
	out.Ticks = a.Ticks
	if a.Valid != nil || b.Valid != nil {
		out.Valid = make([][]bool, 2*k)
		for i, m := range crossMetricIdx {
			out.Valid[i] = joinMask(a.MetricValid(m), a.Ticks)
			out.Valid[k+i] = joinMask(b.MetricValid(m), b.Ticks)
		}
		if a.CPIValid != nil {
			out.CPIValid = append([]bool(nil), a.CPIValid...)
		} else {
			out.CPIValid = joinMask(nil, a.Ticks)
		}
	}
	return out, nil
}

// joinMask copies a validity row, or synthesises an all-true one of length n
// when the side carried no mask.
func joinMask(mask []bool, n int) []bool {
	if mask != nil {
		return append([]bool(nil), mask[:n]...)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// spatialVerdict is the cross arm's answer for one alert: the diagnosed
// fault kind (the signature label with its culprit suffix stripped), the
// culprit node and the execution stage it localises to.
type spatialVerdict struct {
	problem, node, stage string
}

// crossDiagnosis is one pair profile's diagnosis of an alert window, kept
// beside the key it was diagnosed under.
type crossDiagnosis struct {
	key  crossKey
	diag *core.Diagnosis
}

// mergeCrossDiagnoses reduces the per-pair cross diagnoses of one alert to a
// single verdict: the diagnosis with the highest confidence wins. Confidence
// is per-pair signature similarity, so the pair whose joint window most
// precisely reproduces a stored fingerprint decides — summing votes across
// pairs would let several weak noise matches outvote one sharp one. Ties
// break by key for determinism. Cross labels read "kind@node" (split at the
// last '@'); a label without one names no node. Returns nil when no
// diagnosis names a cause.
func mergeCrossDiagnoses(diags []crossDiagnosis) *spatialVerdict {
	var top *crossDiagnosis
	for i := range diags {
		d := &diags[i]
		if d.diag.RootCause() == "" {
			continue
		}
		if top == nil || d.diag.Confidence > top.diag.Confidence ||
			(d.diag.Confidence == top.diag.Confidence && d.key.String() < top.key.String()) {
			top = d
		}
	}
	if top == nil {
		return nil
	}
	kind, node := top.diag.RootCause(), ""
	if i := strings.LastIndexByte(kind, '@'); i >= 0 {
		kind, node = kind[:i], kind[i+1:]
	}
	return &spatialVerdict{problem: kind, node: node, stage: top.key.stage}
}

// crossDiagnose runs the cross arm for one alert: window every trained pair
// profile of the alert's stage (per the run's timeline tl) around the alert
// tick and merge the per-pair diagnoses. keys is the trained cross-profile
// set.
func crossDiagnose(sys *core.System, keys []crossKey, traces map[string]*metrics.Trace, tl timeline, alertTick int) (*spatialVerdict, error) {
	stage := tl.at(alertTick)
	var diags []crossDiagnosis
	for _, key := range keys {
		if key.stage != stage {
			continue
		}
		a, b := traces[key.nodeA], traces[key.nodeB]
		if a == nil || b == nil {
			continue
		}
		win, err := crossWindowAt(a, b, tl, stage, alertTick)
		if err != nil {
			return nil, err
		}
		if win == nil {
			continue
		}
		d, err := sys.Diagnose(key.context(), win)
		if err != nil {
			return nil, err
		}
		diags = append(diags, crossDiagnosis{key: key, diag: d})
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
// batch workload w, on a copy of r with the inter-node flows the cross edges
// couple switched on.
func (r *Runner) RunCrossNodeStudy(w workload.Type) (*CrossStudy, error) {
	if workload.IsInteractive(w) {
		return nil, fmt.Errorf("experiments: cross-node study runs on batch workloads")
	}
	cr := *r
	cr.crossTraffic = true
	r = &cr
	sys, trainRuns, err := r.TrainSystem(w)
	if err != nil {
		return nil, err
	}

	// Cross training: stage-aligned joint windows of every slave pair over
	// the same normal runs, one profile per (pair, stage). Stages whose
	// occurrences are shorter than the window (a small job's reduce tail)
	// simply train no profile.
	var keys []crossKey
	totalEdges := 0
	for _, pair := range slavePairs(trainRuns[0].Traces) {
		for _, stage := range []string{"map", "shuffle", "reduce"} {
			key := newCrossKey(string(w), pair[0], pair[1], stage)
			var windows []*metrics.Trace
			for _, res := range trainRuns {
				ws, err := crossWindows(res.Traces[key.nodeA], res.Traces[key.nodeB], res.stages, stage)
				if err != nil {
					return nil, err
				}
				windows = append(windows, ws...)
			}
			if len(windows) < 2 {
				continue
			}
			if err := sys.Profile(key.context()).TrainInvariants(windows, spanning); err != nil {
				return nil, fmt.Errorf("experiments: training %s: %w", key, err)
			}
			set, err := sys.Invariants(key.context())
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
		stage := res.stages.at(tick)
		for _, key := range keys {
			if key.stage != stage {
				continue
			}
			// A cross fault fingerprints the flows touching the culprit
			// and victim; violations on bystander pairs are shuffle
			// noise, and a signature stored there matches the wrong
			// kind's noise just as well.
			if key.nodeA != res.CulpritIP && key.nodeB != res.CulpritIP &&
				key.nodeA != res.TargetIP && key.nodeB != res.TargetIP {
				continue
			}
			win, err := crossWindowAt(res.Traces[key.nodeA], res.Traces[key.nodeB], res.stages, stage, tick)
			if err != nil {
				return nil, err
			}
			if win == nil {
				continue
			}
			// One-edge tuples are degenerate signatures: a single
			// chance violation at diagnosis time matches them with
			// Jaccard 1.0, so demand at least two broken edges.
			vr, err := sys.Violations(key.context(), win)
			if err != nil {
				return nil, err
			}
			if len(vr.Violated) < 2 {
				continue
			}
			label := o.Scenario.Truth() + "@" + res.CulpritIP
			if err := sys.BuildSignature(key.context(), label, win); err != nil {
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
			verdict, err := crossDiagnose(sys, keys, res.Traces, res.stages, tick)
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
