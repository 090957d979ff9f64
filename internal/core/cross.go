package core

import (
	"fmt"
	"strings"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
)

// Cross-node, stage-scoped invariants (the spatio-temporal layer).
//
// An intra-node invariant couples two metrics of one (workload, node)
// context. A cross edge couples a metric on node A with a metric on node B
// during one execution stage: (metricA@nodeA, metricB@nodeB, stage). The
// fault classes that motivate it — shuffle slow links, partition-skew
// stragglers, replication-pipeline drag — leave every within-node coupling
// intact (a constant slowdown is invisible to a scale-invariant association
// measure) and break only the couplings between the culprit's flows and its
// peers' demand.
//
// Rather than a parallel engine, a cross profile is an ordinary Profile
// whose context key encodes the pair and stage: Workload stays the workload
// type, and IP is "nodeA~nodeB#stage" with nodeA < nodeB (unordered pair).
// Its traces are joint windows — the CrossMetricIdx subset of both nodes'
// metrics over the same stage-aligned ticks, stacked by metrics.JoinTraces
// — so the existing MIC batching, sparse prescreen, drift lifecycle,
// signature matching and per-profile persistence all apply unchanged, and
// callers train, label and diagnose it through TrainInvariants,
// BuildSignature and Diagnose with key.Context(). Problem labels carry the
// culprit node ("xlink@10.0.0.3"), so a match on any pair profile recovers
// the (node, stage) localisation. The only cross-specific behaviour in
// Profile is the training pair predicate (only pairs that span the two
// halves are scored and selected) and pair naming
// ("net.txmb@10.0.0.2~net.rxmb@10.0.0.3").

// CrossMetricIdx selects the per-node metrics that participate in cross
// edges: the flow metrics (disk and network directions, their latency and
// retransmission shadows) plus the compute-pressure metrics a straggler
// drags. Keeping the joint space at 2×11 metrics bounds training to 231
// candidate pairs per (workload, pair, stage) — comparable to one intra
// profile's 325.
var CrossMetricIdx = []int{
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

// CrossKey identifies one cross profile: workload, unordered node pair and
// execution stage.
type CrossKey struct {
	Workload string
	NodeA    string // NodeA < NodeB
	NodeB    string
	Stage    string
}

// NewCrossKey builds a key with the node pair put in canonical order.
func NewCrossKey(workload, nodeA, nodeB, stage string) CrossKey {
	if nodeB < nodeA {
		nodeA, nodeB = nodeB, nodeA
	}
	return CrossKey{Workload: workload, NodeA: nodeA, NodeB: nodeB, Stage: stage}
}

// Context returns the registry context of the cross profile. The IP field
// encodes "nodeA~nodeB#stage"; neither '~' nor '#' occurs in node IPs or
// needs escaping in persistence filenames, so cross profiles ride the
// per-profile save/load path as-is.
func (k CrossKey) Context() Context {
	return Context{Workload: k.Workload, IP: k.NodeA + "~" + k.NodeB + "#" + k.Stage}
}

// String renders the key for reports: "sort 10.0.0.2~10.0.0.3 #reduce".
func (k CrossKey) String() string {
	return fmt.Sprintf("%s %s~%s #%s", k.Workload, k.NodeA, k.NodeB, k.Stage)
}

// ParseCrossContext recognises a cross-profile context and decodes its key.
// Intra-node contexts (no '~' in the IP) return ok=false.
func ParseCrossContext(ctx Context) (CrossKey, bool) {
	tilde := strings.IndexByte(ctx.IP, '~')
	if tilde < 0 {
		return CrossKey{}, false
	}
	rest := ctx.IP[tilde+1:]
	hash := strings.IndexByte(rest, '#')
	if hash < 0 {
		return CrossKey{}, false
	}
	return CrossKey{
		Workload: ctx.Workload,
		NodeA:    ctx.IP[:tilde],
		NodeB:    rest[:hash],
		Stage:    rest[hash+1:],
	}, true
}

// crossScope is the per-profile record of cross identity, parsed once at
// profile construction. k is the per-node half-width of the joint metric
// space: joint index i < k lives on NodeA, i >= k on NodeB.
type crossScope struct {
	key CrossKey
	k   int
}

// metricName renders one joint-space metric index as "name@node".
func (c *crossScope) metricName(i int) string {
	node := c.key.NodeA
	if i >= c.k {
		i -= c.k
		node = c.key.NodeB
	}
	if i < len(CrossMetricIdx) && CrossMetricIdx[i] < len(metrics.Names) {
		return metrics.Names[CrossMetricIdx[i]] + "@" + node
	}
	return fmt.Sprintf("m%d@%s", i, node)
}

// pairName renders a joint-space pair as a cross hint, e.g.
// "net.txmb@10.0.0.2~net.rxmb@10.0.0.3".
func (c *crossScope) pairName(p invariant.Pair) string {
	return c.metricName(p.I) + "~" + c.metricName(p.J)
}

// pairLabel names an invariant pair in the profile's own coordinate space:
// the 26 collectl metrics for intra-node profiles, "name@node" halves for
// cross profiles.
func (p *Profile) pairLabel(pr invariant.Pair) string {
	if p.cross != nil {
		return p.cross.pairName(pr)
	}
	return pairName(pr)
}

// DefaultStageWindow is the length, in samples, of a stage-aligned training
// or diagnosis window. Fixed-length windows keep MIC grid resolution (which
// depends on sample count) comparable between training and diagnosis; 10
// samples clears mic/invariant MinSamples with headroom while fitting the
// shortest simulated stage (a 12-tick shuffle round).
const DefaultStageWindow = 10

// CrossWindows cuts stage-aligned joint windows from two nodes' traces: for
// every occurrence of the stage (per a's stage marks; both traces come from
// the same cluster timeline) whose span holds at least win samples, the
// first win ticks of both traces are joined over CrossMetricIdx. win <= 0
// selects DefaultStageWindow.
func CrossWindows(a, b *metrics.Trace, stage string, win int) ([]*metrics.Trace, error) {
	if win <= 0 {
		win = DefaultStageWindow
	}
	var out []*metrics.Trace
	for _, w := range a.StageWindows() {
		if w.Stage != stage || w.Hi-w.Lo < win {
			continue
		}
		joint, err := joinSlice(a, b, w.Lo, w.Lo+win)
		if err != nil {
			return nil, fmt.Errorf("core: joining %s windows: %w", stage, err)
		}
		out = append(out, joint)
	}
	return out, nil
}

// joinSlice slices both traces to [lo, hi) and joins them over
// CrossMetricIdx.
func joinSlice(a, b *metrics.Trace, lo, hi int) (*metrics.Trace, error) {
	as, err := a.Slice(lo, hi)
	if err != nil {
		return nil, err
	}
	bs, err := b.Slice(lo, hi)
	if err != nil {
		return nil, err
	}
	return metrics.JoinTraces(as, bs, CrossMetricIdx)
}

// CrossWindowAt cuts the single stage-aligned joint diagnosis window
// containing tick: the win samples starting at the stage occurrence's
// beginning, shifted right (but kept inside the stage) so the window covers
// the tick when the stage is long. Returns nil when tick falls in no
// occurrence of the stage long enough to window.
func CrossWindowAt(a, b *metrics.Trace, stage string, tick, win int) (*metrics.Trace, error) {
	if win <= 0 {
		win = DefaultStageWindow
	}
	for _, w := range a.StageWindows() {
		if w.Stage != stage || tick < w.Lo || tick >= w.Hi || w.Hi-w.Lo < win {
			continue
		}
		lo := tick - win + 1
		if lo < w.Lo {
			lo = w.Lo
		}
		if lo+win > w.Hi {
			lo = w.Hi - win
		}
		return joinSlice(a, b, lo, lo+win)
	}
	return nil, nil
}

// SpatialVerdict is a diagnosis localised to (node, stage): the outcome of
// merging the cross-profile diagnoses of one alert.
type SpatialVerdict struct {
	// Problem is the diagnosed fault kind (the signature label with the
	// node suffix stripped); empty when no cross profile matched.
	Problem string
	// Node is the culprit node and Stage the execution stage the verdict
	// localises to.
	Node  string
	Stage string
	// Score is the winning (coverage-weighted) signature similarity.
	Score float64
	// Source is the cross profile that produced the verdict.
	Source CrossKey
	// Diag is the winning profile's full diagnosis.
	Diag *Diagnosis
}

// SplitCulprit decodes a cross signature label "kind@node" into its parts;
// labels without '@' return the whole label and an empty node.
func SplitCulprit(problem string) (kind, node string) {
	if i := strings.LastIndexByte(problem, '@'); i >= 0 {
		return problem[:i], problem[i+1:]
	}
	return problem, ""
}

// MergeCrossDiagnoses reduces the per-pair cross diagnoses of one alert to a
// single (node, stage) verdict: the diagnosis with the highest confidence
// wins. Confidence is per-pair signature similarity, so the pair whose joint
// window most precisely reproduces a stored fingerprint decides — summing
// votes across pairs would let several weak noise matches outvote one sharp
// one. Ties break by context string for determinism. Returns nil when no
// diagnosis names a cause.
func MergeCrossDiagnoses(diags []*Diagnosis) *SpatialVerdict {
	var top *Diagnosis
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
	key, _ := ParseCrossContext(top.Context)
	kind, node := SplitCulprit(top.RootCause())
	return &SpatialVerdict{
		Problem: kind,
		Node:    node,
		Stage:   key.Stage,
		Score:   top.Confidence,
		Source:  key,
		Diag:    top,
	}
}
