package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"invarnetx/internal/core"
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// This file is the deterministic input generator: everything the program
// under test ever sees — training traces, replay frames, labelled fault
// windows, mask positions and synthetic signatures — is produced here, up
// front, from the seed alone. The simulated testbed (experiments.Runner with
// RotateTargets on) supplies the telemetry; the timed phases only replay it.
//
// The seed drives the traffic: the normal runs replayed, the held-out fault
// windows, the mask positions, the synthetic signatures. What the serving
// workloads and persist train their system on — the normal training runs and
// the labelled signature runs — comes from stateSeed whatever the seed, so
// every seed measures the same trained system. How many invariants training
// selects sets what a verdict costs, and over ten seeds that count had an
// interquartile spread of 5.6 %: more than the spread of ten runs at one
// seed. The train workload's traffic is its training runs; there the seed
// drives them.

// stateSeed seeds the simulator runs a workload's trained system is built
// from, unless they are its traffic (genSpec.trainOnSeed).
const stateSeed = 1

// maxTupleLen bounds a synthetic signature tuple before it is cut to the
// trained invariant count of its context (all pairs of the metric vector).
const maxTupleLen = metrics.Count * (metrics.Count - 1) / 2

// synthProblems is how many distinct root-cause labels the synthetic
// signatures spread over, so ranking groups them like a real corpus.
const synthProblems = 200

// genSpec sizes one workload's inputs.
type genSpec struct {
	types       []workload.Type // contexts are types × the 4 slave nodes
	trainOnSeed bool            // the training runs are the traffic: the seed's, not stateSeed's
	faults      []faults.Kind   // injected kinds; empty means normal runs only
	sigRuns     int             // labelled signature runs per (fault, node)
	heldOut     int             // held-out labelled fault runs per (fault, node)
	maskP       float64         // per-entry invalid probability on held-out windows
	synthSigs   int             // synthetic signatures per context
}

// labelled is one fault window with its injected label.
type labelled struct {
	label   string
	trace   *metrics.Trace  // the 30-tick window, clean (signature training)
	samples []server.Sample // the window on the wire, masked when maskP > 0
}

// ctxInput is everything generated for one operation context.
type ctxInput struct {
	ctx      core.Context
	cpis     [][]float64      // CPI series of the normal runs
	windows  []*metrics.Trace // invariant-training windows, one per normal run
	replay   []server.Sample  // the seed's normal runs back to back, for ingest replay
	sigs     []labelled       // signature-training windows
	verdicts []labelled       // held-out fault windows, in fault-kind order
	synth    []signature.Entry
}

// inputs is one workload's generated input set, contexts sorted by
// (workload, node).
type inputs struct {
	seed int64
	ctxs []*ctxInput
}

// samplesOf converts ticks [lo, hi) of tr to wire samples.
func samplesOf(tr *metrics.Trace, lo, hi int) []server.Sample {
	out := make([]server.Sample, 0, hi-lo)
	for t := lo; t < hi; t++ {
		row := make([]float64, len(tr.Rows))
		for m := range tr.Rows {
			row[m] = tr.Rows[m][t]
		}
		out = append(out, server.Sample{Metrics: row, CPI: tr.CPI[t]})
	}
	return out
}

// maskSamples flags each metric entry invalid with probability p, leaving a
// zero placeholder — the telemetry Mask policy on the wire.
func maskSamples(samples []server.Sample, p float64, rng *stats.RNG) {
	for i := range samples {
		var valid []bool
		for m := range samples[i].Metrics {
			if !rng.Bernoulli(p) {
				continue
			}
			if valid == nil {
				valid = make([]bool, len(samples[i].Metrics))
				for k := range valid {
					valid[k] = true
				}
			}
			valid[m] = false
			samples[i].Metrics[m] = 0
		}
		samples[i].Valid = valid
	}
}

// simJob is one simulator run to execute and what its traces become; results
// land in res by index so the parallel generation stays deterministic.
type simJob struct {
	r    *experiments.Runner
	w    workload.Type
	kind faults.Kind
	idx  int
	use  use
}

// use says what a simulator run's traces become.
type use int

const (
	useTrain     use = 1 << iota // normal run: model and invariant training
	useReplay                    // normal run: replay traffic
	useSignature                 // fault run: a labelled signature
	useVerdict                   // fault run: a held-out window to diagnose
)

// runJobs executes jobs on every core and returns results in job order.
func runJobs(jobs []simJob) ([]*experiments.RunResult, error) {
	res := make([]*experiments.RunResult, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i], errs[i] = jobs[i].r.Run(jobs[i].w, jobs[i].kind, jobs[i].idx)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: simulating %s/%s run %d: %w", jobs[i].w, jobs[i].kind, jobs[i].idx, err)
		}
	}
	return res, nil
}

// generate builds a workload's inputs from seed.
func generate(seed int64, gs genSpec) (*inputs, error) {
	opts := experiments.DefaultOptions()
	opts.RotateTargets = true
	opts.Seed = seed
	traffic := experiments.NewRunner(opts)
	state := traffic
	if !gs.trainOnSeed {
		opts.Seed = stateSeed
		state = experiments.NewRunner(opts)
	}
	slaves := opts.Slaves

	var jobs []simJob
	for _, w := range gs.types {
		for i := 0; i < opts.TrainRuns; i++ {
			if state == traffic {
				jobs = append(jobs, simJob{r: state, w: w, idx: i, use: useTrain | useReplay})
				continue
			}
			jobs = append(jobs, simJob{r: state, w: w, idx: i, use: useTrain}, simJob{r: traffic, w: w, idx: i, use: useReplay})
		}
		for _, k := range gs.faults {
			// RotateTargets faults node idx%slaves, so idx = round*slaves+node
			// gives every node a run of every kind per round. The held-out
			// rounds follow the signature rounds, so one runner serving both
			// never hands out a run twice.
			sig := gs.sigRuns * slaves
			for i := 0; i < sig; i++ {
				jobs = append(jobs, simJob{r: state, w: w, kind: k, idx: i, use: useSignature})
			}
			for i := sig; i < sig+gs.heldOut*slaves; i++ {
				jobs = append(jobs, simJob{r: traffic, w: w, kind: k, idx: i, use: useVerdict})
			}
		}
	}
	results, err := runJobs(jobs)
	if err != nil {
		return nil, err
	}

	byCtx := make(map[core.Context]*ctxInput)
	get := func(w workload.Type, ip string) *ctxInput {
		ctx := core.Context{Workload: string(w), IP: ip}
		c, ok := byCtx[ctx]
		if !ok {
			c = &ctxInput{ctx: ctx}
			byCtx[ctx] = c
		}
		return c
	}
	for j, res := range results {
		job := jobs[j]
		if job.kind == "" {
			for ip, tr := range res.Traces {
				c := get(job.w, ip)
				if job.use&useTrain != 0 {
					c.cpis = append(c.cpis, tr.CPI)
					win, err := experiments.AbnormalWindow(tr, opts.FaultStart, opts.FaultTicks)
					if err != nil {
						return nil, fmt.Errorf("bench: training window: %w", err)
					}
					c.windows = append(c.windows, win)
				}
				if job.use&useReplay != 0 {
					c.replay = append(c.replay, samplesOf(tr, 0, tr.Len())...)
				}
			}
			continue
		}
		win, err := experiments.AbnormalWindow(res.TargetTrace(), res.Window.Start, opts.FaultTicks)
		if err != nil {
			return nil, fmt.Errorf("bench: fault window: %w", err)
		}
		lab := labelled{label: string(job.kind), trace: win, samples: samplesOf(win, 0, win.Len())}
		c := get(job.w, res.TargetIP)
		if job.use == useSignature {
			c.sigs = append(c.sigs, lab)
		} else {
			c.verdicts = append(c.verdicts, lab)
		}
	}

	in := &inputs{seed: seed}
	for _, c := range byCtx {
		in.ctxs = append(in.ctxs, c)
	}
	sort.Slice(in.ctxs, func(a, b int) bool {
		x, y := in.ctxs[a].ctx, in.ctxs[b].ctx
		if x.Workload != y.Workload {
			return x.Workload < y.Workload
		}
		return x.IP < y.IP
	})
	rng := stats.NewRNG(seed ^ 0x5eed)
	for i, c := range in.ctxs {
		if gs.maskP > 0 {
			mrng := rng.Fork(int64(2 * i))
			for v := range c.verdicts {
				maskSamples(c.verdicts[v].samples, gs.maskP, mrng)
			}
		}
		srng := rng.Fork(int64(2*i + 1))
		for s := 0; s < gs.synthSigs; s++ {
			// Density in the band real fault signatures fall in, so the
			// synthetic corpus is scored, not trivially rejected.
			density := srng.Uniform(0.05, 0.4)
			tuple := make(signature.Tuple, maxTupleLen)
			for k := range tuple {
				tuple[k] = srng.Bernoulli(density)
			}
			c.synth = append(c.synth, signature.Entry{
				Tuple:    tuple,
				Problem:  fmt.Sprintf("synth-%03d", s%synthProblems),
				IP:       c.ctx.IP,
				Workload: c.ctx.Workload,
			})
		}
	}
	return in, nil
}

// frames cuts samples into consecutive batches of n ticks (the last one
// shorter when the length does not divide).
func frames(samples []server.Sample, n int) [][]server.Sample {
	var out [][]server.Sample
	for lo := 0; lo < len(samples); lo += n {
		hi := lo + n
		if hi > len(samples) {
			hi = len(samples)
		}
		out = append(out, samples[lo:hi])
	}
	return out
}

// digest fingerprints everything generated: the encoded frames of every
// replay and fault window, the labels, and the synthetic signatures. Two
// input sets with equal digests put byte-identical traffic on the wire.
func (in *inputs) digest() (uint64, error) {
	h := fnv.New64a()
	var buf []byte
	frame := func(c *ctxInput, samples []server.Sample) error {
		if len(samples) == 0 {
			return nil
		}
		var err error
		buf, err = server.AppendFrame(buf[:0], c.ctx.Workload, c.ctx.IP, samples)
		if err != nil {
			return err
		}
		h.Write(buf)
		return nil
	}
	for _, c := range in.ctxs {
		if err := frame(c, c.replay); err != nil {
			return 0, err
		}
		for _, w := range c.windows {
			if err := frame(c, samplesOf(w, 0, w.Len())); err != nil {
				return 0, err
			}
		}
		for _, set := range [][]labelled{c.sigs, c.verdicts} {
			for _, l := range set {
				h.Write([]byte(l.label))
				if err := frame(c, l.samples); err != nil {
					return 0, err
				}
			}
		}
		for _, e := range c.synth {
			var fp [8]byte
			binary.LittleEndian.PutUint64(fp[:], e.Fingerprint())
			h.Write(fp[:])
		}
	}
	return h.Sum64(), nil
}
