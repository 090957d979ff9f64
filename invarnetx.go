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
// The package exports what the examples use, and nothing else:
//
//   - the diagnosis system (System, Config, Context) and MIC, the
//     association measure behind its invariants;
//   - the simulated Hadoop testbed (Cluster, workload generators, fault
//     kinds, the CPI sampler) — the substitute for the paper's physical
//     five-node cluster, documented in DESIGN.md;
//   - the experiment harness that runs the paper's evaluation on that
//     testbed (ExperimentRunner, Scenario).
//
// The five modules behind them — performance model, invariants,
// signatures, anomaly detection and cause inference — are reached through
// System's methods. See examples/quickstart for an end-to-end walkthrough
// and cmd/experiments for the reproduction of every table and figure in the
// paper.
package invarnetx

import (
	"invarnetx/internal/cluster"
	"invarnetx/internal/core"
	"invarnetx/internal/cpi"
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// Diagnosis system.
type (
	// System is an InvarNet-X deployment: a registry of per-context
	// profiles.
	System = core.System
	// Config parameterises a System (thresholds, association measure,
	// report cache, similarity, the drift lifecycle).
	Config = core.Config
	// Context is the operation context: workload type and node IP.
	Context = core.Context
)

// New builds an InvarNet-X system, one profile per operation context. A zero
// Config is the paper's configuration, the same as DefaultConfig().
func New(cfg Config) *System { return core.New(cfg) }

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// MIC returns the Maximal Information Coefficient of a metric pair under
// the default configuration.
func MIC(xs, ys []float64) float64 { return mic.MIC(xs, ys) }

// Simulated testbed.
type (
	// Cluster is the simulated Hadoop deployment.
	Cluster = cluster.Cluster
	// Node is one simulated machine.
	Node = cluster.Node
	// JobSpec declares a job's task footprints.
	JobSpec = cluster.JobSpec
	// ClusterEffects is the per-tick effect set a perturbation can apply
	// to a node.
	ClusterEffects = cluster.Effects
	// WorkloadType names a BigDataBench-style workload.
	WorkloadType = workload.Type
	// WorkloadParams configures job generation.
	WorkloadParams = workload.Params
	// FaultKind names one of the 15 injectable faults.
	FaultKind = faults.Kind
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

// NewBatchJob generates a batch job spec for a workload type.
func NewBatchJob(t WorkloadType, p WorkloadParams) JobSpec { return workload.NewJob(t, p) }

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return stats.NewRNG(seed) }

// NewCPISampler builds a CPI sampler drawing noise from rng.
func NewCPISampler(rng *RNG) *CPISampler { return cpi.NewSampler(rng) }

// CPIRunStatistic reduces a run's CPI samples to the paper's sufficient
// statistic, the 95th percentile.
func CPIRunStatistic(samples []float64) (float64, error) { return cpi.RunStatistic(samples) }

// Experiment harness (the paper's evaluation).
type (
	// ExperimentOptions sizes a reproduction experiment.
	ExperimentOptions = experiments.Options
	// ExperimentRunner executes the paper's experiments.
	ExperimentRunner = experiments.Runner
	// ExperimentRunResult is one simulated run's observations.
	ExperimentRunResult = experiments.RunResult
	// Scenario is one row of a study: a run and how the pipeline sees it.
	// ExperimentRunner.Label stores rows as signatures; Observe monitors,
	// windows and diagnoses one.
	Scenario = experiments.Scenario
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
