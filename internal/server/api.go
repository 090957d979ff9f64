// Package server is the online serving layer of InvarNet-X: a stdlib
// net/http JSON API that turns the per-context core.Profile registry into a
// long-running multi-tenant diagnosis service.
//
// The paper's whole point is *online* diagnosis — watch the CPI of running
// jobs, fire cause inference the moment ARIMA drift appears — and this
// package is the subsystem that puts live traffic on the library:
//
//   - POST /v1/ingest      batched per-(workload, node) metric samples feed
//     per-context sliding windows and asynchronous drift detection;
//   - POST /v1/diagnose    asynchronous cause inference (returns a report ID);
//   - GET  /v1/reports/{id} the finished ViolationReport/Diagnosis;
//   - GET  /v1/profiles    the profile registry, operator view;
//   - GET/POST /v1/signatures  read the signature base, or label a new
//     investigated fault into it over the wire;
//   - GET  /healthz, GET /v1/stats  liveness and the server's own counters.
//
// Overload is shed, never buffered without bound: every profile owns a
// bounded task queue drained by a goroutine of its own, at most
// Config.Workers tasks run at once, and a full queue turns
// into 429 Retry-After at admission. Degraded telemetry rides the masked
// pipeline end to end — a sample's validity mask flows through
// metrics.Trace into tri-state invariant checking.
package server

import (
	"errors"
	"fmt"
	"math"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
)

// Sample is one tick of one node's telemetry on the wire. JSON cannot carry
// NaN, so a telemetry gap is a Valid flag cleared over a placeholder value:
// a lost entry goes out as 0 (what telemetry.FaultModel sends), which is
// stored as NaN; any other placeholder is an outside client's choice, kept
// and flagged invalid. Either way the masked pipeline treats the touched
// invariants as unknown, not violated.
type Sample struct {
	// Metrics is the full per-tick vector; len must equal metrics.Count.
	Metrics []float64 `json:"metrics"`
	// CPI is the tick's cycles-per-instruction reading.
	CPI float64 `json:"cpi"`
	// Valid, when present, flags which metric entries are genuine; len must
	// equal metrics.Count. Absent means every entry is genuine.
	Valid []bool `json:"valid,omitempty"`
	// CPIValid flags the CPI reading; nil means genuine.
	CPIValid *bool `json:"cpiValid,omitempty"`
}

// IngestRequest is one POST /v1/ingest body: a batch of consecutive samples
// for one stream (one operation context).
type IngestRequest struct {
	Workload string   `json:"workload"`
	Node     string   `json:"node"`
	Samples  []Sample `json:"samples"`
}

// IngestResponse acknowledges an accepted batch. Acceptance means the
// samples are queued for application to the stream's sliding window and
// drift detection; graceful shutdown drains that queue, so accepted never
// means droppable.
type IngestResponse struct {
	Accepted   int   `json:"accepted"`
	QueueDepth int64 `json:"queueDepth"`
}

// DiagnoseRequest is one POST /v1/diagnose body. With Samples the supplied
// window is diagnosed; without, the stream's current sliding window is.
// Wait=true blocks the request until the report completes (the work still
// rides the profile queue; this only moves the polling server-side).
type DiagnoseRequest struct {
	Workload string   `json:"workload"`
	Node     string   `json:"node"`
	Samples  []Sample `json:"samples,omitempty"`
	Wait     bool     `json:"wait,omitempty"`
}

// DiagnoseResponse returns the report handle (and, under Wait, the report).
type DiagnoseResponse struct {
	ID     string  `json:"id"`
	Status string  `json:"status"`
	Report *Report `json:"report,omitempty"`
}

// Cause is one ranked root cause.
type Cause struct {
	Problem string  `json:"problem"`
	Score   float64 `json:"score"`
}

// Diagnosis is the wire form of core.Diagnosis.
type Diagnosis struct {
	Workload   string   `json:"workload"`
	Node       string   `json:"node"`
	Tuple      string   `json:"tuple"` // 0/1 string over the sorted invariant pairs
	Invariants int      `json:"invariants"`
	Violations int      `json:"violations"`
	Coverage   float64  `json:"coverage"`
	Confidence float64  `json:"confidence"`
	RootCause  string   `json:"rootCause,omitempty"`
	Causes     []Cause  `json:"causes,omitempty"`
	Hints      []string `json:"hints,omitempty"`
	Unknown    []string `json:"unknown,omitempty"`
}

// SignatureRequest labels an investigated problem into the signature base:
// the violation tuple of the supplied abnormal window is stored under the
// stream's operation context ("once the performance problem is resolved, a
// new signature will be added into the signature base" — here, over the
// wire). Without Samples the stream's current window is used.
type SignatureRequest struct {
	Workload string   `json:"workload"`
	Node     string   `json:"node"`
	Problem  string   `json:"problem"`
	Samples  []Sample `json:"samples,omitempty"`
}

// SignatureEntry is one stored signature on the wire.
type SignatureEntry struct {
	Problem  string `json:"problem"`
	Workload string `json:"workload"`
	Node     string `json:"node"`
	Tuple    string `json:"tuple"`
}

// SignaturesResponse is the GET /v1/signatures payload.
type SignaturesResponse struct {
	Count      int              `json:"count"`
	Signatures []SignatureEntry `json:"signatures"`
}

// ProfileInfo is one profile in GET /v1/profiles: the core registry snapshot
// joined with the serving-side stream state.
type ProfileInfo struct {
	Workload    string `json:"workload"`
	Node        string `json:"node"`
	HasModel    bool   `json:"hasModel"`
	Invariants  int    `json:"invariants"`
	Signatures  int    `json:"signatures"`
	CacheHits   int64  `json:"cacheHits"`
	CacheMisses int64  `json:"cacheMisses"`

	// Drift-lifecycle state of the profile's model (all zero when the
	// lifecycle is disabled): live generation, quarantined edge count,
	// oldest shadow candidate age, and promotion/rollback tallies.
	Generation       uint64 `json:"generation"`
	QuarantinedEdges int    `json:"quarantinedEdges"`
	ShadowAge        int    `json:"shadowAge"`
	Promotions       int64  `json:"promotions"`
	Rollbacks        int64  `json:"rollbacks"`

	// Serving-side stream state; zero-valued when nothing was ingested for
	// the context yet.
	WindowLen int   `json:"windowLen"`
	Ingested  int64 `json:"ingested"`
	Alerts    int64 `json:"alerts"`
	Alerting  bool  `json:"alerting"`
}

// ProfilesResponse is the GET /v1/profiles payload, sorted by
// (workload, node).
type ProfilesResponse struct {
	Count    int           `json:"count"`
	Profiles []ProfileInfo `json:"profiles"`
}

// Health is the GET /healthz payload.
type Health struct {
	Status    string  `json:"status"` // "ok" or "draining"
	UptimeSec float64 `json:"uptimeSec"`
}

// validateSamples checks wire samples for shape errors and non-finite
// values once, before any state is touched. JSON cannot carry NaN/Inf, but
// binary frames and in-process callers can; a non-finite value admitted here
// would poison the MIC preparations and the detector's forecast history, so
// both ingest paths reject it at admission — validity masks are the only
// sanctioned gap channel. The JSON request decoder applies the shape rules
// as it reads, with these same errors.
func validateSamples(samples []Sample) error {
	if len(samples) == 0 {
		return errEmptyBatch
	}
	for i, s := range samples {
		if len(s.Metrics) != metrics.Count {
			return metricCountError(i, len(s.Metrics))
		}
		if s.Valid != nil && len(s.Valid) != metrics.Count {
			return maskLengthError(i, len(s.Valid))
		}
		for m, v := range s.Metrics {
			if !isFinite(v) {
				return badValueError(m, i, v)
			}
		}
		if !isFinite(s.CPI) {
			return fmt.Errorf("server: cpi at sample %d is %v (gaps ride validity masks, not non-finite values)", i, s.CPI)
		}
	}
	return nil
}

// errEmptyBatch, metricCountError and maskLengthError are validateSamples'
// shape refusals; errNoIdentity refuses a request naming no stream, and
// errNoLabel a label naming no stream or no problem.
var (
	errEmptyBatch = errors.New("server: empty sample batch")
	errNoIdentity = errors.New("workload and node are required")
	errNoLabel    = errors.New("workload, node and problem are required")
)

func metricCountError(sample, got int) error {
	return fmt.Errorf("server: sample %d has %d metrics, want %d", sample, got, metrics.Count)
}

func maskLengthError(sample, got int) error {
	return fmt.Errorf("server: sample %d mask has %d entries, want %d", sample, got, metrics.Count)
}

// badValueError is the shared rejection for a non-finite metric entry: it
// names the offending metric — index and name — and the sample offset within
// the batch, and both ingest encodings go through it, so a JSON batch and a
// binary frame smuggling the same bad value fail identically.
func badValueError(metric, sample int, v float64) error {
	return fmt.Errorf("server: metric %d (%s) at sample %d is %v (gaps ride validity masks, not non-finite values)",
		metric, metrics.Names[metric], sample, v)
}

// isFinite reports whether v is an admissible wire value (not NaN, not ±Inf).
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// maskValue applies the gap semantics to one wire entry: an invalid entry
// whose placeholder is zero is stored as NaN; any other placeholder is an
// outside client's choice, kept as-is and flagged invalid by the mask.
// Applied once, where samples become columns (ingestBatch.fromSamples and
// the two request decoders).
func maskValue(v float64, valid bool) float64 {
	if !valid && v == 0 {
		return math.NaN()
	}
	return v
}

// TraceFromSamples materialises wire samples into a metrics.Trace, applying
// maskValue: an invalid entry with a zero placeholder is stored as NaN, a
// non-zero placeholder is kept but stays flagged invalid — in both cases the
// validity mask is what the masked pipeline trusts. It is the stream
// window's own route (samples → columnar batch → trace), so an explicit
// window and the identical ingested one are the same trace; the studies'
// degraded windows take it too.
func TraceFromSamples(workloadType, node string, samples []Sample) (*metrics.Trace, error) {
	if err := validateSamples(samples); err != nil {
		return nil, err
	}
	b := getBatch()
	defer putBatch(b)
	b.fromSamples(samples)
	return traceFromColumns(core.Context{Workload: workloadType, IP: node}, b.n, b.n, b.cols, b.valid, b.cpi, b.cpiOK), nil
}

// diagnosisWire converts a core.Diagnosis for the wire. Scores are finite
// by construction (similarities in [0,1] scaled by coverage), so the JSON
// encoder never sees a NaN.
func diagnosisWire(ctx core.Context, d *core.Diagnosis, invariants int) *Diagnosis {
	out := &Diagnosis{
		Workload:   ctx.Workload,
		Node:       ctx.IP,
		Tuple:      d.Tuple.String(),
		Invariants: invariants,
		Violations: d.Tuple.Ones(),
		Coverage:   d.Coverage,
		Confidence: d.Confidence,
		RootCause:  d.RootCause(),
		Hints:      d.Hints,
		Unknown:    d.Unknown,
	}
	for _, c := range d.Causes {
		out.Causes = append(out.Causes, Cause{Problem: c.Problem, Score: c.Score})
	}
	return out
}
