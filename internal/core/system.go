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
// own self-synchronised Profile, held in a striped registry: training or
// diagnosing context A never contends with context B. Config.UseContext =
// false maps every context onto the single global profile — the ablated
// variant evaluated in Figs. 9-10 — as the degenerate case of the same
// machinery, not a separate code path.
package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"invarnetx/internal/arima"
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

// Config parameterises an InvarNet-X instance. Zero-valued fields take the
// paper defaults via DefaultConfig.
type Config struct {
	// Epsilon is the invariant-violation threshold (paper: 0.2).
	Epsilon float64
	// Tau is the invariant-selection stability threshold (paper: 0.2).
	Tau float64
	// Detect configures anomaly detection (rule, beta, consecutive).
	Detect detect.Config
	// Assoc is the pairwise association measure; mic.MIC by default,
	// arx.Association for the baseline comparison.
	Assoc invariant.AssociationFunc
	// AssocCacheSize bounds each profile's association-matrix cache: 0
	// selects DefaultAssocCacheSize, negative disables caching.
	AssocCacheSize int
	// Similarity is the tuple-similarity measure for signature retrieval.
	Similarity signature.Measure
	// SigMinScore is the minimum similarity for a signature match to be
	// reported. The paper ranks every known signature, so the default is 0
	// (report all, ranked); setting it > 0 drops weak causes from reports.
	SigMinScore float64
	// TopK bounds the returned cause list (0 = all).
	TopK int
	// UseContext scopes models and signatures by (workload, node). When
	// false, a single global profile and an unscoped signature search are
	// used — the "InvarNet-X (no operation context)" ablation.
	UseContext bool
	// Lifecycle configures the drift-aware invariant lifecycle (edge
	// health, quarantine, shadow generations); disabled by default —
	// train-once behaviour — and enabled explicitly by long-running
	// deployments (invarnetd). See LifecycleConfig.
	Lifecycle LifecycleConfig
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Epsilon:    invariant.DefaultEpsilon,
		Tau:        invariant.DefaultTau,
		Detect:     detect.DefaultConfig(),
		Assoc:      mic.MIC,
		Similarity: signature.Jaccard,
		TopK:       5,
		UseContext: true,
	}
}

// profileShards is the number of stripes in the profile registry. Lookups
// take one shard's read lock only; profile state itself is guarded by the
// profile, so the stripes only serialise registry mutation.
const profileShards = 16

type profileShard struct {
	mu       sync.RWMutex
	profiles map[Context]*Profile
}

// System is one InvarNet-X deployment: a configuration plus the striped
// registry of per-context profiles.
type System struct {
	cfg Config
	// batchMIC is the one scoring decision: Assoc is the stock mic.MIC, so a
	// window is prepared once (mic.NewBatch) and pairs scored from the shared
	// preparation; any other measure runs Assoc per pair.
	batchMIC bool
	shards   [profileShards]profileShard
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

// maxConsecutive clamps the consecutive-anomaly window: a detector that
// needs more than 1024 consecutive anomalous samples will never alert
// within any realistic job, which is a configuration bug, not a policy.
const maxConsecutive = 1024

// Validate reports the first nonsensical field of the configuration, before
// defaulting: zero values (which New replaces with paper defaults) and the
// documented negative sentinel for AssocCacheSize are fine, but
// NaN/Inf or negative thresholds, out-of-range probabilities and unknown
// enum values are rejected. Long-running services (invarnetd) should call
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
	case bad(c.Detect.Beta):
		return fmt.Errorf("core: Detect.Beta %v is not a usable threshold factor", c.Detect.Beta)
	case c.Detect.Consecutive < 0 || c.Detect.Consecutive > maxConsecutive:
		return fmt.Errorf("core: Detect.Consecutive %d outside [0,%d]", c.Detect.Consecutive, maxConsecutive)
	case c.TopK < 0:
		return fmt.Errorf("core: TopK %d is negative (0 means unranked-all)", c.TopK)
	case bad(c.SigMinScore) || c.SigMinScore > 1:
		return fmt.Errorf("core: SigMinScore %v outside [0,1] (similarity floor over signature matches)", c.SigMinScore)
	case c.AssocCacheSize > maxAssocCacheSize:
		return fmt.Errorf("core: AssocCacheSize %d exceeds the %d per-profile clamp", c.AssocCacheSize, maxAssocCacheSize)
	}
	switch c.Detect.Rule {
	case detect.BetaMax, detect.MaxMin, detect.P95:
	default:
		return fmt.Errorf("core: unknown detection rule %v", c.Detect.Rule)
	}
	switch c.Similarity {
	case signature.Jaccard, signature.Hamming, signature.Cosine:
	default:
		return fmt.Errorf("core: unknown similarity measure %v", c.Similarity)
	}
	return c.Lifecycle.validate()
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
	if cfg.Detect.Beta == 0 {
		cfg.Detect.Beta = def.Detect.Beta
	}
	if cfg.Detect.Consecutive == 0 {
		cfg.Detect.Consecutive = def.Detect.Consecutive
	}
	if cfg.Detect.Select == (arima.SelectConfig{}) {
		cfg.Detect.Select = def.Detect.Select
	}
	if cfg.Assoc == nil {
		cfg.Assoc = def.Assoc
	}
	// One mic.NewBatch per window only when Assoc is literally the stock
	// mic.MIC — a custom Assoc (arx, a wrapped MIC) must not be silently
	// replaced by a scorer computing a different measure.
	s := &System{cfg: cfg, batchMIC: isStockMIC(cfg.Assoc)}
	for i := range s.shards {
		s.shards[i].profiles = make(map[Context]*Profile)
	}
	return s
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

// key maps a context to its profile key; without operation context every
// context maps onto the single global profile.
func (s *System) key(ctx Context) Context {
	if s.cfg.UseContext {
		return ctx
	}
	return Context{}
}

// shardFor picks the registry stripe of a profile key (FNV-1a over the
// workload and IP; the 0xff separator keeps ("ab","c") and ("a","bc") apart).
func (s *System) shardFor(key Context) *profileShard {
	h := fnvOffset.str(key.Workload).b(0xff).str(key.IP)
	return &s.shards[uint64(h)%profileShards]
}

// lookup returns ctx's profile if one exists — the read path: online
// operations on an untrained context must fail with ErrNoModel /
// ErrNoInvariants, not materialise empty profiles.
func (s *System) lookup(ctx Context) (*Profile, bool) {
	key := s.key(ctx)
	sh := s.shardFor(key)
	sh.mu.RLock()
	p, ok := sh.profiles[key]
	sh.mu.RUnlock()
	return p, ok
}

// forCaller is the one place the caller's context meets the profile's key.
// A Profile reports errors under its own key; without operation context
// every ctx answers from the global profile (key Context{}), so an error
// crossing the System boundary is prefixed with the context the caller
// actually asked about. errors.Is/As see through the prefix.
func (s *System) forCaller(ctx Context, err error) error {
	if err == nil || s.key(ctx) == ctx {
		return err
	}
	return fmt.Errorf("%v: %w", ctx, err)
}

// online runs one of the System's online operations: op on ctx's existing
// profile, its error addressed to the caller (forCaller). A context with no
// profile fails with missing, naming ctx.
func online[T any](s *System, ctx Context, missing error, op func(*Profile) (T, error)) (T, error) {
	p, ok := s.lookup(ctx)
	if !ok {
		var zero T
		return zero, fmt.Errorf("%w: %v", missing, ctx)
	}
	v, err := op(p)
	return v, s.forCaller(ctx, err)
}

// Profile returns ctx's profile, creating it on first use. Without
// operation context every ctx yields the same global profile.
func (s *System) Profile(ctx Context) *Profile {
	key := s.key(ctx)
	sh := s.shardFor(key)
	sh.mu.RLock()
	p, ok := sh.profiles[key]
	sh.mu.RUnlock()
	if ok {
		return p
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p, ok = sh.profiles[key]; ok {
		return p
	}
	p = newProfile(s, key)
	sh.profiles[key] = p
	return p
}

// Profiles returns every registered profile, sorted by context for
// deterministic iteration.
func (s *System) Profiles() []*Profile {
	var out []*Profile
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, p := range sh.profiles {
			out = append(out, p)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].key.Workload != out[b].key.Workload {
			return out[a].key.Workload < out[b].key.Workload
		}
		return out[a].key.IP < out[b].key.IP
	})
	return out
}

// TrainPerformanceModel fits the ARIMA CPI model and thresholds for ctx
// from the CPI traces of N normal runs. Without operation context the
// traces pool with everything trained before, and the single global model
// is refit on the whole pool.
func (s *System) TrainPerformanceModel(ctx Context, cpiTraces [][]float64) error {
	return s.forCaller(ctx, s.Profile(ctx).TrainPerformanceModel(cpiTraces))
}

// TrainInvariants runs Algorithm 1 for ctx over the metric traces of N
// normal runs. Without operation context the runs pool with everything
// trained before: Algorithm 1's stability test then only keeps pairs whose
// association holds on *every* node and workload seen — which is exactly
// how the global variant loses most of its invariants on a heterogeneous
// platform.
func (s *System) TrainInvariants(ctx Context, runs []*metrics.Trace) error {
	return s.forCaller(ctx, s.Profile(ctx).TrainInvariants(runs))
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
// (problem, tuple) fingerprint — was already present). The serving layer uses
// the entry to replicate freshly learned signatures to fleet peers.
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
// present. This is the apply path for signatures learned elsewhere — fleet
// anti-entropy deltas, offline imports — and it reports whether the entry
// was new.
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

// SignatureSnapshot returns a deep copy of the signature entries of every
// profile, in deterministic profile order. Unlike the live per-profile
// databases it is safe to read, match and audit while concurrent
// BuildSignature calls keep writing.
func (s *System) SignatureSnapshot() *signature.DB {
	out := &signature.DB{}
	for _, p := range s.Profiles() {
		for _, e := range p.Signatures() {
			out.Add(e)
		}
	}
	return out
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

// pairName renders an invariant pair as a hint string, e.g.
// "mem.pagefaults-cpu.user".
func pairName(p invariant.Pair) string {
	if p.I < len(metrics.Names) && p.J < len(metrics.Names) {
		return metrics.Names[p.I] + "-" + metrics.Names[p.J]
	}
	return fmt.Sprintf("m%d-m%d", p.I, p.J)
}

// Diagnose runs cause inference on an abnormal metric window for ctx (see
// Profile.Diagnose for the pipeline). The diagnosis names the caller's ctx
// even when it was answered by the global no-context profile.
func (s *System) Diagnose(ctx Context, abnormal *metrics.Trace) (*Diagnosis, error) {
	return online(s, ctx, ErrNoInvariants, func(p *Profile) (*Diagnosis, error) {
		diag, err := p.Diagnose(abnormal)
		if err == nil {
			diag.Context = ctx
		}
		return diag, err
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
