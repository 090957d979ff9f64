// Package experiments reproduces the paper's evaluation (§4): one runner
// per figure and table, each executing workloads on the simulated cluster,
// training InvarNet-X, injecting faults, and reporting the same rows or
// series the paper reports.
//
// The experiment index lives in DESIGN.md; EXPERIMENTS.md records measured
// results against the paper's numbers.
package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"invarnetx/internal/cluster"
	"invarnetx/internal/core"
	"invarnetx/internal/cpi"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// Options sizes an experiment. The defaults reproduce the paper's setup
// scaled to simulator time; tests shrink RunsPerFault and TrainRuns to stay
// fast.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Slaves is the number of slave nodes (paper: 4 slaves + 1 master).
	Slaves int
	// InputMB is the batch job input size. The paper uses 15 GB; the
	// default here is 12 GB, which yields jobs of 45-60 ticks — long
	// enough to contain the 30-tick fault window.
	InputMB float64
	// TrainRuns is the number of normal runs used to train the ARIMA
	// model and invariants per context (paper: 10-20).
	TrainRuns int
	// RunsPerFault is the total number of injected runs per fault kind
	// (paper: 40), of which SignatureRuns train the signature database.
	RunsPerFault int
	// SignatureRuns is how many of the fault runs build signatures
	// (paper: 2).
	SignatureRuns int
	// FaultStart and FaultTicks place the fault window within a run
	// (paper: 5 minutes = 30 ticks).
	FaultStart int
	FaultTicks int
	// SessionTicks is the length of an interactive (TPC-DS) run.
	SessionTicks int
	// RotateTargets moves the fault target across the slave nodes from
	// run to run instead of always hitting slave 0. The Figs. 9/10
	// comparison enables it: with heterogeneous nodes, per-context
	// signatures keep matching while a global (no-context) signature base
	// mixes nodes whose baselines differ — the degradation the paper
	// demonstrates.
	RotateTargets bool
	// Config configures the InvarNet-X instance under test.
	Config core.Config
}

// DefaultOptions returns the paper-shaped configuration.
func DefaultOptions() Options {
	return Options{
		Seed:          1,
		Slaves:        4,
		InputMB:       12 * 1024,
		TrainRuns:     8,
		RunsPerFault:  40,
		SignatureRuns: 2,
		FaultStart:    10,
		FaultTicks:    30,
		SessionTicks:  70,
		Config:        core.DefaultConfig(),
	}
}

// The testbed's fixed parameters: the slaves' hardware always differs (which
// is what makes the operation context matter).
const (
	// sessionRate is the mean interactive query arrivals per tick.
	sessionRate = 1.0
	// maxRunTicks bounds a single run (wedged-job safety net).
	maxRunTicks = 4000
)

// orDefault replaces an unset (non-positive) option with its default.
func orDefault[T int | float64](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

func (o *Options) defaults() {
	d := DefaultOptions()
	orDefault(&o.Slaves, d.Slaves)
	orDefault(&o.InputMB, d.InputMB)
	orDefault(&o.TrainRuns, d.TrainRuns)
	orDefault(&o.RunsPerFault, d.RunsPerFault)
	orDefault(&o.SignatureRuns, d.SignatureRuns)
	orDefault(&o.FaultStart, d.FaultStart)
	orDefault(&o.FaultTicks, d.FaultTicks)
	orDefault(&o.SessionTicks, d.SessionTicks)
	// Unset Config fields take core.New's defaults, so studies reading its
	// fields see the System's.
	o.Config = core.New(o.Config).Config()
}

// Runner executes simulated runs. Each run uses a fresh cluster seeded
// deterministically from (experiment seed, run id), so results are
// reproducible and runs are independent — matching the paper's methodology
// of repeated job executions.
type Runner struct {
	opts Options
	// noContext marks the no-context arm of Figs. 9/10 (see scope); only
	// variant sets it.
	noContext bool
	// crossTraffic enables the simulator's inter-node shuffle-serving and
	// replication flows. Only RunCrossNodeStudy sets it, on a runner of its
	// own, so every other study keeps the single-node corpus's exact
	// historical dynamics.
	crossTraffic bool
}

// NewRunner validates opts and returns a Runner.
func NewRunner(opts Options) *Runner {
	opts.defaults()
	return &Runner{opts: opts}
}

// RunResult is everything observed during one run.
type RunResult struct {
	// Traces maps slave IP to its metric+CPI trace.
	Traces map[string]*metrics.Trace
	// TargetIP is the faulted node ("" for normal runs). For cross-node
	// faults it is the victim — the node whose CPI degrades.
	TargetIP string
	// CulpritIP is the node carrying the root cause of a cross-node fault
	// (the victim itself for partition skew); "" otherwise.
	CulpritIP string
	// Fault is the injected fault ("" for normal runs).
	Fault faults.Kind
	// Window is the fault window in run-relative ticks.
	Window faults.Window
	// DurationTicks is the batch job duration (interactive runs report
	// the session length).
	DurationTicks int
	// MeanQueryTicks is the mean completed-query latency (interactive).
	MeanQueryTicks float64
	// stages is the batch job's stage timeline, in sample indices shared by
	// every node's trace; nil for interactive runs.
	stages timeline
}

// stageSpan is one occurrence of an execution stage: samples [lo, hi) of
// every node's trace in a run.
type stageSpan struct {
	stage  string
	lo, hi int
}

// timeline is a batch run's stage spans in sample order. They tile the
// samples from the first one taken while the job ran to the end of the run,
// and a stage that recurs gets one span per occurrence.
type timeline []stageSpan

// observe records sample i, taken at tick, on job j's timeline. A sample
// taken once the job is done has no stage of its own.
func (tl timeline) observe(j *cluster.Job, tick, i int) timeline {
	if j.Done() {
		return tl.add("", i)
	}
	return tl.add(j.StageAt(tick), i)
}

// add records sample i of the given stage: it opens a span when the stage
// differs from the last span's and extends that span otherwise. A sample
// with no stage extends the last span, or opens none before the first.
func (tl timeline) add(stage string, i int) timeline {
	if n := len(tl); n > 0 && (stage == "" || tl[n-1].stage == stage) {
		tl[n-1].hi = i + 1
		return tl
	}
	if stage == "" {
		return tl
	}
	return append(tl, stageSpan{stage: stage, lo: i, hi: i + 1})
}

// at returns the stage of sample i, or "" when no span covers it.
func (tl timeline) at(i int) string {
	for _, s := range tl {
		if s.lo <= i && i < s.hi {
			return s.stage
		}
	}
	return ""
}

// runSeed derives a per-run seed from the experiment seed, a stream label
// and the run index.
func (r *Runner) runSeed(stream string, idx int) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(stream) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return h ^ (r.opts.Seed * 2654435761) ^ (int64(idx) * 40503)
}

// firstSlaveIP is the IP of slave 0 — the fault target and the node whose
// traces single-node analyses use.
const firstSlaveIP = "10.0.0.2"

// Run executes one run of workload w with an optional fault. For batch
// workloads it submits a single job and runs it to completion; for TPC-DS
// it drives a mixed interactive session for SessionTicks plus drain time.
// fault=="" means a normal run.
func (r *Runner) Run(w workload.Type, fault faults.Kind, idx int) (*RunResult, error) {
	return r.execute(w, string(fault), idx, func(c *cluster.Cluster, rng *stats.RNG, res *RunResult) error {
		if fault == "" {
			return nil
		}
		target := c.Slaves()[0]
		if r.opts.RotateTargets {
			target = c.Slaves()[idx%len(c.Slaves())]
		}
		res.Fault = fault
		res.TargetIP = target.IP
		inj, err := faults.New(fault, res.Window, rng)
		if err != nil {
			return err
		}
		if fault == faults.Overload || fault == faults.Misconf {
			// Cluster-wide faults: extra queries and misconfiguration
			// affect every node.
			for _, n := range c.Slaves() {
				n.Attach(inj)
			}
		} else {
			target.Attach(inj)
		}
		return nil
	})
}

// RunCross executes one run with a cross-node fault: the culprit-side
// perturbation lands on the node the simulator's ring topology makes
// responsible for the victim's inter-node flows (the ring predecessor serves
// the victim's shuffle pulls, the ring successor ingests its replication
// stream), and the victim-side perturbation — the degradation the culprit
// causes — lands on slave 0. Requires RunCrossNodeStudy's runner. The fault
// window runs from FaultStart to the end of the run: a slow link or dragging
// replica is a standing condition that only bites in the stages exercising
// it, which is what scopes the alert to a stage.
func (r *Runner) RunCross(w workload.Type, kind faults.Kind, idx int) (*RunResult, error) {
	return r.execute(w, "cross/"+string(kind), idx, func(c *cluster.Cluster, rng *stats.RNG, res *RunResult) error {
		slaves := c.Slaves()
		if len(slaves) < 2 {
			return fmt.Errorf("experiments: cross faults need at least 2 slaves")
		}
		victim := slaves[0]
		var culprit *cluster.Node
		switch kind {
		case faults.XLink:
			culprit = slaves[len(slaves)-1] // ring predecessor of the victim
		case faults.XRepl:
			culprit = slaves[1] // ring successor of the victim
		case faults.XSkew:
			culprit = victim // the straggler is its own root cause
		default:
			return fmt.Errorf("experiments: %q is not a cross-node fault", kind)
		}
		res.Fault = kind
		res.TargetIP = victim.IP
		res.CulpritIP = culprit.IP
		res.Window = faults.Window{Start: r.opts.FaultStart, End: maxRunTicks}
		ci, err := faults.NewCross(kind, res.Window, rng)
		if err != nil {
			return err
		}
		culprit.Attach(ci.Culprit())
		if v := ci.Victim(); v != nil {
			victim.Attach(v)
		}
		return nil
	})
}

// runPair executes a run with two faults injected on the same target node.
func (r *Runner) runPair(w workload.Type, a, b faults.Kind, idx int) (*RunResult, error) {
	return r.execute(w, "pair/"+string(a)+"+"+string(b), idx, func(c *cluster.Cluster, rng *stats.RNG, res *RunResult) error {
		target := c.Slaves()[0]
		res.TargetIP = target.IP
		res.Fault = a // primary label; both are active
		for i, kind := range []faults.Kind{a, b} {
			inj, err := faults.New(kind, res.Window, rng.Fork(int64(i)))
			if err != nil {
				return err
			}
			target.Attach(inj)
		}
		return nil
	})
}

// runWithPerturbation executes a run with a custom perturbation (built from
// the fault window) attached to every slave — used by the Fig. 2 benign
// disturbance.
func (r *Runner) runWithPerturbation(w workload.Type, idx int, mk func(faults.Window) cluster.Perturbation) (*RunResult, error) {
	return r.execute(w, "perturbed", idx, func(c *cluster.Cluster, rng *stats.RNG, res *RunResult) error {
		p := mk(res.Window)
		for _, n := range c.Slaves() {
			n.Attach(p)
		}
		res.TargetIP = c.Slaves()[0].IP
		return nil
	})
}

// execute is the shared run skeleton: build a cluster, attach whatever the
// setup callback installs, drive the workload, and collect traces.
func (r *Runner) execute(w workload.Type, stream string, idx int, setup func(c *cluster.Cluster, rng *stats.RNG, res *RunResult) error) (*RunResult, error) {
	seed := r.runSeed(string(w)+"/"+stream, idx)
	c := cluster.NewHeterogeneous(r.opts.Slaves, seed)
	c.CrossTraffic = r.crossTraffic
	rng := stats.NewRNG(seed + 7)
	collector := cluster.NewCollectl(rng.Fork(1))
	sampler := cpi.NewSampler(rng.Fork(2))

	res := &RunResult{Traces: make(map[string]*metrics.Trace)}
	for _, n := range c.Slaves() {
		res.Traces[n.IP] = metrics.NewTrace(n.IP, string(w))
	}
	res.Window = faults.Window{Start: r.opts.FaultStart, End: r.opts.FaultStart + r.opts.FaultTicks}
	if err := setup(c, rng.Fork(3), res); err != nil {
		return nil, err
	}

	var job *cluster.Job // the batch job, once submitted
	samples := 0
	observe := func(tick int) {
		if job != nil {
			res.stages = res.stages.observe(job, tick, samples)
		}
		for _, n := range c.Slaves() {
			if err := res.Traces[n.IP].Add(collector.Collect(n), sampler.Sample(n, string(w))); err != nil {
				panic(err) // collector width is a programming invariant
			}
		}
		samples++
	}

	if workload.IsInteractive(w) {
		sess := workload.NewSession(c, rng.Fork(4), sessionRate)
		for t := 0; t < r.opts.SessionTicks; t++ {
			sess.Tick()
			c.Step()
			observe(c.Tick())
		}
		res.DurationTicks = r.opts.SessionTicks
		if durs := sess.CompletedDurations(); len(durs) > 0 {
			res.MeanQueryTicks = stats.MustMean(durs)
		}
		return res, nil
	}

	spec := workload.NewJob(w, workload.Params{InputMB: r.opts.InputMB, RNG: rng.Fork(5)})
	spec = faults.TransformSpec(res.Fault, spec)
	job = c.Submit(spec)
	if err := c.RunUntilDone(job, maxRunTicks, observe); err != nil {
		// A wedged run (e.g. Suspend on every replica holder) still
		// produced traces; report what happened.
		res.DurationTicks = maxRunTicks
	} else {
		res.DurationTicks = job.DurationTicks()
	}
	return res, nil
}

// TargetTrace returns the faulted node's trace (the node InvarNet-X
// diagnoses in fault experiments); nil for a normal run, whose TargetIP is "".
func (res *RunResult) TargetTrace() *metrics.Trace { return res.Traces[res.TargetIP] }

// TrainSystem builds an InvarNet-X instance trained on TrainRuns normal
// runs of workload w: one performance model and one invariant set per slave
// node context, each trained once on the runs scope maps to it — its node's,
// or in the no-context arm every node's, in node order. It returns the system
// and the per-node normal traces of the final training run (useful to seed
// monitors).
func (r *Runner) TrainSystem(w workload.Type) (*core.System, []*RunResult, error) {
	sys := core.New(r.opts.Config)
	runs, err := r.normalRuns(w)
	if err != nil {
		return nil, nil, err
	}
	var scopes []core.Context
	cpis, windows := map[core.Context][][]float64{}, map[core.Context][]*metrics.Trace{}
	for _, ip := range sortedKeys(runs[0].Traces) {
		ctx := r.scope(core.Context{Workload: string(w), IP: ip})
		if _, seen := cpis[ctx]; !seen {
			scopes = append(scopes, ctx)
		}
		c, win := r.trainingSet(runs, ip)
		cpis[ctx], windows[ctx] = append(cpis[ctx], c...), append(windows[ctx], win...)
	}
	// Profiles are independent: train every one concurrently.
	errs := make([]error, len(scopes))
	var wg sync.WaitGroup
	for i, ctx := range scopes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prof := sys.Profile(ctx)
			if errs[i] = prof.TrainPerformanceModel(cpis[ctx]); errs[i] == nil {
				errs[i] = prof.TrainInvariants(windows[ctx], nil)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return sys, runs, nil
}

// scope maps a row's operation context to the profile it trains, labels and
// diagnoses under: the context itself, or in the no-context arm the zero
// Context, so that one profile pools every node's training windows and
// signatures.
func (r *Runner) scope(ctx core.Context) core.Context {
	if r.noContext {
		return core.Context{}
	}
	return ctx
}

// normalRuns executes the TrainRuns normal runs of w everything trains on.
func (r *Runner) normalRuns(w workload.Type) ([]*RunResult, error) {
	var runs []*RunResult
	for i := 0; i < r.opts.TrainRuns; i++ {
		res, err := r.Run(w, "", i)
		if err != nil {
			return nil, fmt.Errorf("experiments: training run %d: %w", i, err)
		}
		runs = append(runs, res)
	}
	return runs, nil
}

// trainingSet cuts node ip's training material out of normal runs: the CPI
// series, and one invariant-training window per run at the fault offset — the
// paper's "N runs give N association matrices", aligned with the job phase a
// fault window covers (the whole run when it is shorter than a window).
// Baselines are trained on windows of the diagnosis windows' length: MIC
// estimates depend on the sample size, so comparing a full-run baseline
// against a 30-sample abnormal window would register spurious violations
// everywhere; matched windows make baseline and abnormal scores exchangeable
// under normal operation, and Algorithm 1's stability test then prunes any
// pair whose windowed association genuinely fluctuates.
func (r *Runner) trainingSet(runs []*RunResult, ip string) (cpis [][]float64, windows []*metrics.Trace) {
	for _, res := range runs {
		tr := res.Traces[ip]
		win, err := AbnormalWindow(tr, r.opts.FaultStart, r.opts.FaultTicks)
		if err != nil {
			win = tr
		}
		cpis, windows = append(cpis, tr.CPI), append(windows, win)
	}
	return cpis, windows
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FaultKindsFor returns the fault set evaluated under workload w: all 15
// kinds for interactive workloads, 14 (no Overload) for batch FIFO.
func FaultKindsFor(w workload.Type) []faults.Kind {
	var out []faults.Kind
	for _, k := range faults.Kinds() {
		if faults.InteractiveOnly(k) && !workload.IsInteractive(w) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// AbnormalWindow extracts the diagnosis window from a run's target trace:
// exactly length samples starting at from, shifted back when the trace ends
// early (and truncated only if the whole trace is shorter than length).
// Keeping every diagnosis window the same length as the invariant-training
// windows keeps MIC's sample-size bias out of the violation comparison. The
// online system cannot see the ground-truth fault window, so test runs pass
// the detector's alert tick as from; signature training passes the true
// window start.
func AbnormalWindow(tr *metrics.Trace, from, length int) (*metrics.Trace, error) {
	if length > tr.Len() {
		length = tr.Len()
	}
	if from < 0 {
		from = 0
	}
	if from+length > tr.Len() {
		from = tr.Len() - length
	}
	return tr.Slice(from, from+length)
}
