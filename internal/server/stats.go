package server

import (
	"math"
	"sync/atomic"
	"time"
)

// latencyBucketsMS are the fixed upper bounds (milliseconds) of the diagnose
// latency histogram, roughly quarter-decade spaced from 100 µs to 10 s. A
// fixed-bucket histogram costs one atomic increment per observation and
// needs no locking or reservoir to answer p50/p95/p99, which is all the
// operator surface promises: bucket-upper-bound quantiles, not exact order
// statistics.
var latencyBucketsMS = [numLatencyBuckets]float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

const numLatencyBuckets = 16

// histogram is a fixed-bucket latency histogram; counts[len(bounds)] is the
// overflow bucket.
type histogram struct {
	counts [numLatencyBuckets + 1]atomic.Int64
	total  atomic.Int64
	sumUS  atomic.Int64 // microseconds, for a mean without float atomics
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumUS.Add(int64(d / time.Microsecond))
}

// quantile returns the upper bound of the bucket containing quantile q
// (0 < q <= 1), in milliseconds. The overflow bucket reports the last
// finite bound (a floor: "at least this"). 0 when nothing was observed.
func (h *histogram) quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	// Nearest rank: the smallest observation with at least q of the sample at
	// or below it. The epsilon keeps binary rounding of q from pushing an
	// exact product (0.95 × 100) over the next integer.
	rank := int64(math.Ceil(q*float64(total) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(latencyBucketsMS) {
				return latencyBucketsMS[i]
			}
			return latencyBucketsMS[len(latencyBucketsMS)-1]
		}
	}
	return latencyBucketsMS[len(latencyBucketsMS)-1]
}

// meanMS returns the exact mean latency in milliseconds (0 when empty).
func (h *histogram) meanMS() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumUS.Load()) / 1000 / float64(n)
}

// counters is the server's own operational bookkeeping. Everything here is
// maintained by the serving layer itself; the core figures are reduced from
// one profile snapshot at read time (see Server.Stats).
type counters struct {
	ingestBatches  atomic.Int64 // accepted POST /v1/ingest requests
	ingestSamples  atomic.Int64 // accepted samples across those batches
	ingestShed     atomic.Int64 // ingest batches refused with 429
	diagnoseShed   atomic.Int64 // queued requests refused with 429: diagnose and signature labelling
	badRequests    atomic.Int64 // malformed requests refused with 4xx
	detectTasks    atomic.Int64 // detection tasks executed
	alerts         atomic.Int64 // monitor alerts raised
	reportsPending atomic.Int64
	reportsDone    atomic.Int64
	reportsFailed  atomic.Int64
	signaturesPost atomic.Int64 // signatures labelled over the wire

	diagnoseLatency histogram
}

// LatencySummary is the operator view of the diagnose latency histogram.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"meanMS"`
	P50MS  float64 `json:"p50MS"`
	P95MS  float64 `json:"p95MS"`
	P99MS  float64 `json:"p99MS"`
}

// Stats is the GET /v1/stats payload (built by Server.Stats): the serving
// layer's own counters plus the core figures summed over every profile.
// Field names and JSON keys are a wire contract — bench/ and invarctl decode
// them — pinned by TestStatsAndProfilesWireKeys.
type Stats struct {
	UptimeSec     float64 `json:"uptimeSec"`
	Streams       int     `json:"streams"`
	Profiles      int     `json:"profiles"`
	Workers       int     `json:"workers"`
	QueueDepth    int64   `json:"queueDepth"`
	QueueCapacity int     `json:"queueCapacity"` // per-profile bound

	IngestBatches int64 `json:"ingestBatches"`
	IngestSamples int64 `json:"ingestSamples"`
	IngestShed    int64 `json:"ingestShed"`
	DiagnoseShed  int64 `json:"diagnoseShed"`
	BadRequests   int64 `json:"badRequests"`

	DetectTasks int64 `json:"detectTasks"`
	Alerts      int64 `json:"alerts"`

	ReportsPending int64 `json:"reportsPending"`
	ReportsDone    int64 `json:"reportsDone"`
	ReportsFailed  int64 `json:"reportsFailed"`
	SignaturesPost int64 `json:"signaturesPosted"`

	AssocCacheHits    int64   `json:"assocCacheHits"`
	AssocCacheMisses  int64   `json:"assocCacheMisses"`
	AssocCacheEntries int     `json:"assocCacheEntries"`
	AssocCacheHitRate float64 `json:"assocCacheHitRate"` // 0 when no lookups yet

	// Sparse diagnosis tiers: trained pairs certified by the prescreen lower
	// bound, pairs that ran the exact association, and pairs reported
	// unknown under degraded telemetry.
	SparseScreenedPairs int64 `json:"sparseScreenedPairs"`
	SparseExactPairs    int64 `json:"sparseExactPairs"`
	SparseSkippedPairs  int64 `json:"sparseSkippedPairs"`

	// Signature best-match scan: entries considered, entries resolved by an
	// early exit (popcount fast paths, stale-length skips, MinScore
	// pruning), and the resulting early-exit rate (0 when nothing scanned).
	SigScanEntries       int64   `json:"sigScanEntries"`
	SigScanEarlyExits    int64   `json:"sigScanEarlyExits"`
	SigScanEarlyExitRate float64 `json:"sigScanEarlyExitRate"`

	// Signatures is the number of stored signatures across all profiles:
	// the sum of the /v1/profiles rows' signatures.
	Signatures int `json:"signatures"`
	// SigIndexQueries and SigIndexCandidates are not on the wire and never
	// set: the retrieval index they counted is gone, and they stay declared
	// only because bench/run.go l. 403–404 still reads them and bench/
	// changes in benchmark-only PRs. Delete both with that reader.
	SigIndexQueries    int64 `json:"-"`
	SigIndexCandidates int64 `json:"-"`

	// Drift-lifecycle totals (see core.LifecycleStats): edges under
	// health tracking, currently quarantined edges, the oldest shadow
	// candidate's evaluation age, and how many shadow generations were
	// promoted or rolled back. All zero when the lifecycle is disabled.
	LifecycleEnabled  bool   `json:"lifecycleEnabled"`
	ModelGeneration   uint64 `json:"modelGeneration"`
	LifecycleEdges    int    `json:"lifecycleEdges"`
	QuarantinedEdges  int    `json:"quarantinedEdges"`
	ShadowAge         int    `json:"shadowAge"`
	LifecycleObserved int64  `json:"lifecycleObserved"`
	Promotions        int64  `json:"promotions"`
	Rollbacks         int64  `json:"rollbacks"`

	DiagnoseLatency LatencySummary `json:"diagnoseLatency"`
}
