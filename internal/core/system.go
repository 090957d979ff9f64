// Package core is InvarNet-X itself: the centralized diagnosis system of
// Fig. 3, wiring the substrates together.
//
// Offline part (three modules):
//   - performance-model building: per operation context, an ARIMA model of
//     normal CPI plus a residual threshold (TrainPerformanceModel);
//   - invariant construction: per operation context, the MIC invariant set
//     over N normal runs (TrainInvariants);
//   - signature-base building: per investigated problem, the binary
//     violation tuple stored under its context (BuildSignature).
//
// Online part (two modules):
//   - performance anomaly detection: an online Monitor per running job that
//     checks ARIMA drift on the CPI stream (Detector, then its NewMonitor);
//   - cause inference: triggered on an alert, computes the violation tuple
//     of the abnormal window and retrieves the most similar signatures
//     (Diagnose).
//
// The state of each operation context (workload type, node IP) lives in its
// own self-synchronised Profile, held in one map under one lock that guards
// only the map: training or diagnosing context A never waits on context B's
// work.
package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/signature"
)

// Context is the paper's operation context: "the workload type and node ID".
type Context struct {
	Workload string
	IP       string
}

func (c Context) String() string { return fmt.Sprintf("%s@%s", c.Workload, c.IP) }

// Config parameterises an InvarNet-X instance. The zero Config is the
// paper's: New gives every zero field its DefaultConfig value. What the
// paper fixes is not configurable: the CPI detector is detect.DefaultConfig
// (beta-max, β = 1.2, three consecutive anomalies), a diagnosis ranks at
// most topCauses causes, and every stored signature competes (no similarity
// floor).
type Config struct {
	// Epsilon is the invariant-violation threshold (paper: 0.2).
	Epsilon float64
	// Tau is the invariant-selection stability threshold (paper: 0.2).
	Tau float64
	// Assoc is the pairwise association measure; mic.MIC by default,
	// arx.Association for the baseline comparison.
	Assoc invariant.AssociationFunc
	// AssocCacheSize bounds each profile's report cache — finished
	// ViolationReports keyed by window fingerprint, invariant set and
	// lifecycle epoch (cache.go): 0 selects DefaultAssocCacheSize, negative
	// disables caching.
	AssocCacheSize int
	// Similarity names the signature similarity measure. Jaccard, its zero
	// value, is the only one Validate accepts, and diagnosis does not read
	// it: it stays because bench/ passes it to signature.MatchMasked.
	Similarity signature.Measure
	// Lifecycle turns on the drift-aware invariant lifecycle (edge health,
	// quarantine, shadow generations) for every profile; off by default —
	// train-once behaviour — and enabled explicitly by long-running
	// deployments (invarnetd -lifecycle). Its tuning is fixed (see
	// lifecycleTuning).
	Lifecycle bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Epsilon:    invariant.DefaultEpsilon,
		Tau:        invariant.DefaultTau,
		Assoc:      mic.MIC,
		Similarity: signature.Jaccard,
	}
}

// topCauses bounds a diagnosis's ranked cause list.
const topCauses = 5

// System is one InvarNet-X deployment: a configuration plus the registry of
// per-context profiles. The registry lock guards only the map; profile state
// is guarded by each profile.
type System struct {
	cfg Config
	// batchMIC is the one scoring decision: Assoc is the stock mic.MIC, so a
	// window is prepared once (mic.NewBatch) and pairs scored from the shared
	// preparation; any other measure runs Assoc per pair.
	batchMIC bool
	mu       sync.RWMutex
	profiles map[Context]*Profile
}

// Errors reported by the online path.
var (
	// ErrNoModel means the context has no trained performance model.
	ErrNoModel = errors.New("core: no performance model for context")
	// ErrNoInvariants means the context has no trained invariant set.
	ErrNoInvariants = errors.New("core: no invariants for context")
)

// maxAssocCacheSize clamps the per-profile cache bound a config can request.
// A multi-tenant deployment multiplies it by its profile count, so a
// fat-fingered "unlimited-ish" number must not be able to turn one profile
// into a multi-gigabyte arena.
const maxAssocCacheSize = 1 << 20

// Validate reports the first nonsensical field of the configuration, before
// defaulting: zero values (which New replaces with paper defaults) and the
// documented negative sentinel for AssocCacheSize are fine, but
// NaN/Inf, negative or out-of-range thresholds and unknown enum values are
// rejected. Long-running services (invarnetd) should call
// Validate on operator-supplied configuration and refuse to boot on error;
// New itself panics on an invalid config rather than building a registry
// that would misbehave on every later call.
func (c Config) Validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	switch {
	case bad(c.Epsilon) || c.Epsilon > 1:
		return fmt.Errorf("core: Epsilon %v outside (0,1] (violation threshold over MIC scores)", c.Epsilon)
	case bad(c.Tau) || c.Tau > 1:
		return fmt.Errorf("core: Tau %v outside (0,1] (invariant stability threshold)", c.Tau)
	case c.AssocCacheSize > maxAssocCacheSize:
		return fmt.Errorf("core: AssocCacheSize %d exceeds the %d per-profile clamp", c.AssocCacheSize, maxAssocCacheSize)
	}
	if c.Similarity != signature.Jaccard {
		return fmt.Errorf("core: unknown similarity measure %v (Jaccard is the only one)", c.Similarity)
	}
	return nil
}

// New builds a System; zero-valued cfg fields are defaulted. The config is
// validated once here — New panics on NaN/negative thresholds or unknown
// enum values (see Config.Validate), so no System can exist around a config
// that would corrupt every later training and diagnosis call. Services
// taking operator input should pre-flight with Validate and report the
// error instead of crashing.
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core.New: invalid config: %v", err))
	}
	def := DefaultConfig()
	if cfg.Epsilon == 0 {
		cfg.Epsilon = def.Epsilon
	}
	if cfg.Tau == 0 {
		cfg.Tau = def.Tau
	}
	if cfg.Assoc == nil {
		cfg.Assoc = def.Assoc
	}
	// One mic.NewBatch per window only when Assoc is literally the stock
	// mic.MIC — a custom Assoc (arx, a wrapped MIC) must not be silently
	// replaced by a scorer computing a different measure.
	return &System{cfg: cfg, batchMIC: isStockMIC(cfg.Assoc), profiles: make(map[Context]*Profile)}
}

// isStockMIC reports whether f is exactly mic.MIC. Func values are not
// comparable in Go; the code-pointer comparison is the standard escape
// hatch and is only used as a conservative gate for the batch fast path.
func isStockMIC(f invariant.AssociationFunc) bool {
	if f == nil {
		return false
	}
	return reflect.ValueOf(f).Pointer() == reflect.ValueOf(invariant.AssociationFunc(mic.MIC)).Pointer()
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// lookup returns ctx's profile if one exists — the read path: online
// operations on an untrained context must fail with ErrNoModel /
// ErrNoInvariants, not materialise empty profiles.
func (s *System) lookup(ctx Context) (*Profile, bool) {
	s.mu.RLock()
	p, ok := s.profiles[ctx]
	s.mu.RUnlock()
	return p, ok
}

// online runs one of the System's online operations: op on ctx's existing
// profile. A context with no profile fails with missing, naming ctx.
func online[T any](s *System, ctx Context, missing error, op func(*Profile) (T, error)) (T, error) {
	p, ok := s.lookup(ctx)
	if !ok {
		var zero T
		return zero, fmt.Errorf("%w: %v", missing, ctx)
	}
	return op(p)
}

// Profile returns ctx's profile, creating it on first use. Creation
// re-checks under the write lock, so racing first uses get one profile.
func (s *System) Profile(ctx Context) *Profile {
	if p, ok := s.lookup(ctx); ok {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.profiles[ctx]
	if !ok {
		p = newProfile(s, ctx)
		s.profiles[ctx] = p
	}
	return p
}

// Profiles returns every registered profile, sorted by context for
// deterministic iteration.
func (s *System) Profiles() []*Profile {
	s.mu.RLock()
	out := make([]*Profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		out = append(out, p)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].key.Workload != out[b].key.Workload {
			return out[a].key.Workload < out[b].key.Workload
		}
		return out[a].key.IP < out[b].key.IP
	})
	return out
}

// TrainPerformanceModel fits the ARIMA CPI model and thresholds for ctx
// from the CPI traces of N normal runs (see Profile.TrainPerformanceModel).
func (s *System) TrainPerformanceModel(ctx Context, cpiTraces [][]float64) error {
	return s.Profile(ctx).TrainPerformanceModel(cpiTraces)
}

// TrainInvariants runs Algorithm 1 for ctx over the metric traces of N
// normal runs (see Profile.TrainInvariants).
func (s *System) TrainInvariants(ctx Context, runs []*metrics.Trace) error {
	return s.Profile(ctx).TrainInvariants(runs, nil)
}

// Detector returns the trained detector for ctx.
func (s *System) Detector(ctx Context) (*detect.Detector, error) {
	return online(s, ctx, ErrNoModel, (*Profile).Detector)
}

// Invariants returns the trained invariant set for ctx.
func (s *System) Invariants(ctx Context) (*invariant.Set, error) {
	return online(s, ctx, ErrNoInvariants, (*Profile).Invariants)
}

// Violations computes the violation report of an abnormal metric window
// against ctx's invariants — one masked-first pipeline for clean and
// degraded telemetry alike (see Profile.Violations).
func (s *System) Violations(ctx Context, abnormal *metrics.Trace) (*ViolationReport, error) {
	return online(s, ctx, ErrNoInvariants, func(p *Profile) (*ViolationReport, error) {
		return p.Violations(abnormal)
	})
}

// BuildSignature records the violation tuple of an investigated problem in
// the signature database: "Once the performance problem is resolved, a new
// signature will be added into the signature base."
func (s *System) BuildSignature(ctx Context, problem string, abnormal *metrics.Trace) error {
	_, _, err := s.BuildSignatureEntry(ctx, problem, abnormal)
	return err
}

// BuildSignatureEntry is BuildSignature returning the stored entry and
// whether it was new (false when an identical signature — same context, same
// (problem, tuple) fingerprint — was already present). The serving layer
// answers a re-label of a known signature as a duplicate by it.
func (s *System) BuildSignatureEntry(ctx Context, problem string, abnormal *metrics.Trace) (signature.Entry, bool, error) {
	added := false
	entry, err := online(s, ctx, ErrNoInvariants, func(p *Profile) (e signature.Entry, err error) {
		e, added, err = p.buildSignature(problem, abnormal)
		return e, err
	})
	return entry, added, err
}

// MergeSignature routes an already-built entry to the profile its context
// names (created on first use) and stores it unless an identical one is
// present. This is the import path for signatures built elsewhere, such as
// a synthetic corpus, and it reports whether the entry was new.
func (s *System) MergeSignature(e signature.Entry) bool {
	return s.Profile(loadedCtx(e.Workload, e.IP)).mergeSignatures(e) == 1
}

// SignatureCount returns the number of stored signatures across profiles.
func (s *System) SignatureCount() int {
	n := 0
	for _, p := range s.Profiles() {
		n += p.SignatureCount()
	}
	return n
}

// Diagnosis is the output of cause inference: a ranked cause list plus the
// violated-pair hints for unknown problems.
type Diagnosis struct {
	Context Context
	Tuple   signature.Tuple
	// Known flags which invariants were checkable in the abnormal window;
	// under degraded telemetry, invariants whose metrics were unavailable
	// are unknown — neither holding nor violated. Nil means every
	// invariant was checkable.
	Known []bool
	// Coverage is the fraction of invariants that were checkable (1 on a
	// clean window).
	Coverage float64
	// Confidence is the coverage-weighted score of the top cause: the
	// best signature similarity, computed only over known invariants and
	// scaled by Coverage. 0 when no cause matched or nothing was
	// checkable.
	Confidence float64
	// Causes is ranked most-probable-first; empty when the database holds
	// nothing similar ("we provide some hints and leave the problem to
	// the system administrators"). Scores are weighted by Coverage, so a
	// perfect match over half-blind telemetry scores 0.5, not 1.
	Causes []signature.Match
	// Hints names the violated metric pairs, e.g.
	// "mem.pagefaults-cpu.user".
	Hints []string
	// Unknown names the metric pairs whose invariants could not be
	// checked, so operators can see what the diagnosis is blind to.
	Unknown []string
}

// RootCause returns the top-ranked cause, or "" when unknown.
func (d *Diagnosis) RootCause() string {
	if len(d.Causes) == 0 {
		return ""
	}
	return d.Causes[0].Problem
}

// pairName renders a pair of a set over m metrics as a hint string:
// "mem.pagefaults-cpu.user" when the set spans the collected metrics, and
// "m0-m2" otherwise — a set of any other width was trained on windows whose
// rows are not the collector's, so its indices name no platform metric.
func pairName(p invariant.Pair, m int) string {
	if m == metrics.Count {
		return metrics.Names[p.I] + "-" + metrics.Names[p.J]
	}
	return fmt.Sprintf("m%d-m%d", p.I, p.J)
}

// Diagnose runs cause inference on an abnormal metric window for ctx (see
// Profile.Diagnose for the pipeline).
func (s *System) Diagnose(ctx Context, abnormal *metrics.Trace) (*Diagnosis, error) {
	return online(s, ctx, ErrNoInvariants, func(p *Profile) (*Diagnosis, error) {
		return p.Diagnose(abnormal)
	})
}

// ProfileStats snapshots every registered profile for reporting, in
// deterministic context order.
func (s *System) ProfileStats() []ProfileStats {
	profiles := s.Profiles()
	out := make([]ProfileStats, len(profiles))
	for i, p := range profiles {
		out[i] = p.Stats()
	}
	return out
}
