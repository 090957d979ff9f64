// Package invarnetx is a reproduction of "InvarNet-X: A Comprehensive
// Invariant Based Approach for Performance Diagnosis in Big Data Platform"
// (Chen, Qi, Hou, Sun — BPOE 2014).
//
// InvarNet-X diagnoses performance problems in Hadoop-style platforms in
// two stages, both scoped by an operation context (workload type, node):
//
//   - Performance anomaly detection: an ARIMA model of the normal-state
//     Cycles-Per-Instruction (CPI) stream of the running job; a sustained
//     prediction-residual excursion (three consecutive samples over a
//     beta-max threshold) signals an anomaly.
//
//   - Root-cause inference: the stable pairwise MIC associations between
//     26 OS-level metrics are the "observable likely invariants"; the
//     binary tuple of violated invariants is matched against a signature
//     database of investigated problems, returning a ranked cause list.
//
// The package exposes three layers:
//
//   - the diagnosis system itself (System, Config, Context, Diagnosis);
//   - the statistical substrates (MIC, ARIMA, the ARX baseline) through
//     their computation entry points;
//   - the simulated Hadoop testbed used by the examples, experiments and
//     benchmarks (Cluster, workload generators, fault injectors) — the
//     substitute for the paper's physical five-node cluster, documented in
//     DESIGN.md.
//
// See examples/quickstart for an end-to-end walkthrough and cmd/experiments
// for the reproduction of every table and figure in the paper.
package invarnetx

import (
	"invarnetx/internal/arima"
	"invarnetx/internal/arx"
	"invarnetx/internal/cluster"
	"invarnetx/internal/core"
	"invarnetx/internal/cpi"
	"invarnetx/internal/detect"
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// Diagnosis system.
type (
	// System is an InvarNet-X deployment: a striped registry of
	// per-context profiles.
	System = core.System
	// Profile is the self-contained diagnosis state of one operation
	// context: detector, invariant set, signatures, training pools,
	// association cache and live monitors.
	Profile = core.Profile
	// ProfileStats is an operator-facing snapshot of one profile.
	ProfileStats = core.ProfileStats
	// Config parameterises a System (thresholds, association measure,
	// similarity, operation-context usage).
	Config = core.Config
	// Context is the operation context: workload type and node IP.
	Context = core.Context
	// Diagnosis is a ranked root-cause list plus violated-pair hints.
	Diagnosis = core.Diagnosis
	// ViolationReport is the masked-first violation analysis of one
	// abnormal window (tuple, known mask, violated pairs, coverage).
	ViolationReport = core.ViolationReport
	// Detector is a trained CPI anomaly detector.
	Detector = detect.Detector
	// Monitor is the online anomaly-detection state for one job.
	Monitor = detect.Monitor
	// LoadReport summarises a LoadFrom: artefacts recovered and corrupt
	// store files skipped.
	LoadReport = core.LoadReport
)

// New builds an InvarNet-X system; zero-valued Config fields take the paper
// defaults (epsilon=0.2, tau=0.2, beta-max with beta=1.2, MIC associations,
// Jaccard similarity, operation context on).
func New(cfg Config) *System { return core.New(cfg) }

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Statistical substrates.
type (
	// MICConfig tunes the Maximal Information Coefficient approximation.
	MICConfig = mic.Config
	// MICResult is a MIC analysis.
	MICResult = mic.Result
	// ARIMAModel is a fitted ARIMA(p,d,q) model.
	ARIMAModel = arima.Model
	// ARIMAOrder is an ARIMA specification.
	ARIMAOrder = arima.Order
	// ARXModel is a fitted pairwise ARX model (the Jiang et al. baseline).
	ARXModel = arx.Model
	// MICBatch holds a window of metrics prepared once for repeated
	// pair scoring (the engine behind batch invariant training).
	MICBatch = mic.Batch
	// AssociationMatrix is a pairwise association matrix.
	AssociationMatrix = invariant.Matrix
	// PairScorer scores metric pairs by index (MICBatch satisfies it).
	PairScorer = invariant.PairScorer
	// AssocCacheStats reports association-matrix cache effectiveness.
	AssocCacheStats = core.CacheStats
	// InvariantSet is a selected set of observable likely invariants.
	InvariantSet = invariant.Set
	// SignatureDB is the problem-signature database.
	SignatureDB = signature.DB
	// Tuple is a binary violation tuple.
	Tuple = signature.Tuple
	// SignatureMeasure selects the tuple-similarity function.
	SignatureMeasure = signature.Measure
)

// Tuple-similarity measures for signature retrieval.
const (
	Jaccard = signature.Jaccard
	Hamming = signature.Hamming
	Cosine  = signature.Cosine
)

// MIC returns the Maximal Information Coefficient of a metric pair under
// the default configuration.
func MIC(xs, ys []float64) float64 { return mic.MIC(xs, ys) }

// ComputeMIC returns the full MIC analysis.
func ComputeMIC(xs, ys []float64, cfg MICConfig) (MICResult, error) { return mic.Compute(xs, ys, cfg) }

// DefaultMICConfig returns the standard MIC parameters (alpha=0.6, c=15).
func DefaultMICConfig() MICConfig { return mic.DefaultConfig() }

// NewMICBatch prepares every metric row once (one sort and equipartition
// per metric) so the m(m−1)/2 pair scores skip that work.
func NewMICBatch(rows [][]float64, cfg MICConfig) (*MICBatch, error) { return mic.NewBatch(rows, cfg) }

// ComputeAssociationMatrix fills the pairwise association matrix of the
// metric rows with assoc, pairs fanned out across CPUs.
func ComputeAssociationMatrix(rows [][]float64, assoc func(xs, ys []float64) float64) (*AssociationMatrix, error) {
	return invariant.ComputeMatrix(rows, assoc)
}

// ComputeAssociationMatrixScored fills the matrix from a batch pair scorer
// such as MICBatch.
func ComputeAssociationMatrixScored(m int, scorer PairScorer) (*AssociationMatrix, error) {
	return invariant.ComputeMatrixScored(m, scorer)
}

// FitARIMA fits an ARIMA model of the given order.
func FitARIMA(series []float64, order ARIMAOrder) (*ARIMAModel, error) {
	return arima.Fit(series, order)
}

// AutoFitARIMA searches orders by AIC and returns the best model.
func AutoFitARIMA(series []float64) (*ARIMAModel, error) {
	return arima.AutoFit(series, arima.DefaultSelectConfig())
}

// ARXAssociation returns the symmetric ARX fitness association of a metric
// pair — the baseline InvarNet-X is compared against.
func ARXAssociation(xs, ys []float64) float64 { return arx.Association(xs, ys) }

// Simulated testbed.
type (
	// Cluster is the simulated Hadoop deployment.
	Cluster = cluster.Cluster
	// Node is one simulated machine.
	Node = cluster.Node
	// JobSpec declares a job's task footprints.
	JobSpec = cluster.JobSpec
	// Job is a submitted job.
	Job = cluster.Job
	// WorkloadType names a BigDataBench-style workload.
	WorkloadType = workload.Type
	// WorkloadParams configures job generation.
	WorkloadParams = workload.Params
	// ClusterEffects is the per-tick effect set a perturbation can apply
	// to a node.
	ClusterEffects = cluster.Effects
	// Perturbation is the hook custom disturbances implement.
	Perturbation = cluster.Perturbation
	// FaultKind names one of the 15 injectable faults.
	FaultKind = faults.Kind
	// FaultWindow is a fault's activation interval in ticks.
	FaultWindow = faults.Window
	// FaultInjector is a schedulable fault.
	FaultInjector = faults.Injector
	// MetricsCollector samples the 26 collectl-style metrics.
	MetricsCollector = metrics.Collectl
	// MetricsTrace is a per-node metric+CPI time series.
	MetricsTrace = metrics.Trace
	// CPISampler reads per-node CPI, the paper's KPI.
	CPISampler = cpi.Sampler
	// RNG is the deterministic random source used throughout.
	RNG = stats.RNG
)

// The five evaluated workloads.
const (
	Wordcount = workload.Wordcount
	Sort      = workload.Sort
	Grep      = workload.Grep
	Bayes     = workload.Bayes
	TPCDS     = workload.TPCDS
)

// MetricNames lists the 26 collected metrics, index-aligned with trace
// rows.
func MetricNames() []string { return append([]string(nil), metrics.Names...) }

// FaultKinds returns all 15 fault kinds (9 environment + 6 software bugs).
func FaultKinds() []FaultKind { return faults.Kinds() }

// NewCluster builds a simulated cluster with nSlaves slave nodes.
func NewCluster(nSlaves int, seed int64) *Cluster { return cluster.New(nSlaves, seed) }

// NewHeterogeneousCluster builds a cluster whose slaves differ in hardware.
func NewHeterogeneousCluster(nSlaves int, seed int64) *Cluster {
	return cluster.NewHeterogeneous(nSlaves, seed)
}

// NewBatchJob generates a batch job spec for a workload type.
func NewBatchJob(t WorkloadType, p WorkloadParams) JobSpec { return workload.NewJob(t, p) }

// NewFault builds a fault injector active during w.
func NewFault(kind FaultKind, w FaultWindow, rng *RNG) (*FaultInjector, error) {
	return faults.New(kind, w, rng)
}

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return stats.NewRNG(seed) }

// NewMetricsCollector builds a collector drawing noise from rng.
func NewMetricsCollector(rng *RNG) *MetricsCollector { return metrics.NewCollectl(rng) }

// NewCPISampler builds a CPI sampler drawing noise from rng.
func NewCPISampler(rng *RNG) *CPISampler { return cpi.NewSampler(rng) }

// CPIRunStatistic reduces a run's CPI samples to the paper's sufficient
// statistic, the 95th percentile.
func CPIRunStatistic(samples []float64) (float64, error) { return cpi.RunStatistic(samples) }

// NewMetricsTrace returns an empty per-node trace.
func NewMetricsTrace(nodeIP, workloadType string) *MetricsTrace {
	return metrics.NewTrace(nodeIP, workloadType)
}

// Experiment harness (the paper's evaluation).
type (
	// ExperimentOptions sizes a reproduction experiment.
	ExperimentOptions = experiments.Options
	// ExperimentRunner executes the paper's experiments.
	ExperimentRunner = experiments.Runner
	// Study is a full-pipeline diagnosis result (Figs. 7-10).
	Study = experiments.Study
	// Scenario is one row of a study: a run and how the pipeline sees it.
	// ExperimentRunner.Label stores rows as signatures; Observe monitors,
	// windows and diagnoses one.
	Scenario = experiments.Scenario
	// Outcome is what ExperimentRunner.Observe saw on one Scenario.
	Outcome = experiments.Outcome
)

// Where a Scenario's diagnosis window starts: at the known fault start, or
// at the online monitor's alert.
const (
	OracleWindow = experiments.Oracle
	AlertWindow  = experiments.Alert
)

// DefaultExperimentOptions returns the paper-shaped experiment sizing.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// NewExperimentRunner builds a runner for the paper's experiments.
func NewExperimentRunner(opts ExperimentOptions) *ExperimentRunner {
	return experiments.NewRunner(opts)
}

// ExperimentRunResult is one simulated run's observations.
type ExperimentRunResult = experiments.RunResult
