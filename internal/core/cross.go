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
// ("net.txmb@10.0.0.2~net.rxmb@10.0.0.3"). Cutting stage-aligned windows and
// merging one alert's per-pair diagnoses belong to the cross-node study
// (internal/experiments), the layer's only trainer and diagnoser.

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
