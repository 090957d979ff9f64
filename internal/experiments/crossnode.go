package experiments

import (
	"fmt"
	"io"

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
//     alert fell in and merges the per-pair diagnoses to a SpatialVerdict.

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

// crossDiagnose runs the cross arm for one alert: window every trained pair
// profile of the alert's stage around the alert tick and merge the per-pair
// diagnoses. keys is the trained cross-profile set.
func crossDiagnose(sys *core.System, keys []core.CrossKey, traces map[string]*metrics.Trace, stage string, alertTick int) (*core.SpatialVerdict, error) {
	var diags []*core.Diagnosis
	for _, key := range keys {
		if key.Stage != stage {
			continue
		}
		a, b := traces[key.NodeA], traces[key.NodeB]
		if a == nil || b == nil {
			continue
		}
		win, err := core.CrossWindowAt(a, b, stage, alertTick, 0)
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
	return core.MergeCrossDiagnoses(diags), nil
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
				ws, err := core.CrossWindows(res.Traces[key.NodeA], res.Traces[key.NodeB], stage, 0)
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
			win, err := core.CrossWindowAt(res.Traces[key.NodeA], res.Traces[key.NodeB], stage, tick, 0)
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
				row.CrossVerdicts[verdict.Problem+"@"+verdict.Node+"#"+verdict.Stage]++
				if verdict.Problem == string(kind) {
					if verdict.Node == res.CulpritIP && verdict.Stage == row.Stage {
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
