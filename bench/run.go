package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
)

// measurement is one run of one workload: the end-to-end metrics of its
// untraced pass and, for a traced run, the per-layer metrics.
type measurement struct {
	attempted int64
	failed    int64
	checks    []string // output-check failures; empty means correct
	e2e       map[string]float64
	layer     map[string]float64 // nil unless traced
	raw       map[string]float64 // the timing end-to-end metrics as the wall clock read them
	notes     []string           // human-readable lines printed with the metrics
	digest    string             // ingest workloads: digest of the check-window verdicts
	top1      *top1              // storm workloads: diagnosis accuracy
	spans     []span
}

// usage is a snapshot of the process counters the proc.* metrics difference.
type usage struct {
	cpuS      float64
	mallocs   uint64
	gcPauseMS float64
	gcCycles  uint32
	heapAlloc uint64
}

// minus returns the counters' advance from v to u (the heap reading is u's).
func (u usage) minus(v usage) usage {
	u.cpuS -= v.cpuS
	u.mallocs -= v.mallocs
	u.gcPauseMS -= v.gcPauseMS
	u.gcCycles -= v.gcCycles
	return u
}

// readUsage returns the process counters. The calibrations run in a child
// process and move none of them.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		mallocs:   ms.Mallocs,
		gcPauseMS: float64(ms.PauseTotalNs) / 1e6,
		gcCycles:  ms.NumGC,
		heapAlloc: ms.HeapAlloc,
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return u
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMiB returns the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapLive returns the live heap in bytes after forced collections — two,
// because a sync.Pool gives its buffers up only on the second.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	return readUsage().heapAlloc
}

const mib = 1 << 20

// usageSince records the process counters the pass moved since u0.
func (p *pass) usageSince(u0 usage) {
	d := readUsage().minus(u0)
	p.cpuS, p.mallocs, p.gcPauseMS, p.gcCycles = d.cpuS, d.mallocs, d.gcPauseMS, d.gcCycles
}

// ops returns the units of work the timed stints completed.
func (p *pass) ops() int64 {
	var n int64
	for _, o := range p.done {
		n += o.size
	}
	return n
}

// latencies returns the timed operations' raw latencies in ms, ascending.
func (p *pass) latencies() []float64 {
	xs := make([]float64, len(p.done))
	for i, o := range p.done {
		xs[i] = ms(o.end - o.start)
	}
	return sorted(xs)
}

// stintFigures lists one figure of every timed stint.
func (p *pass) stintFigures(pick func(stintStat) float64) []float64 {
	xs := make([]float64, len(p.stints))
	for k, s := range p.stints {
		xs[k] = pick(s)
	}
	return xs
}

// timings are a pass's rate and latency percentiles.
type timings struct{ rate, p50, p90 float64 }

// headline returns the pass's timings in calibrated seconds — the median
// stint's rate, and percentiles over the calibrated latencies of every timed
// operation (see estimate.go) — and the same figures as the wall clock read
// them.
func (p *pass) headline() (cal, raw timings) {
	var lat []float64
	for _, s := range p.stints {
		lat = append(lat, s.lat...)
	}
	lat = sorted(lat)
	cal = timings{mid(p.stintFigures(func(s stintStat) float64 { return s.rate })), percentile(lat, 50), percentile(lat, 90)}
	wall := p.latencies()
	raw = timings{mid(p.stintFigures(func(s stintStat) float64 { return s.rawRate })), percentile(wall, 50), percentile(wall, 90)}
	return cal, raw
}

// endToEndOf derives m's end-to-end metrics from the untraced pass and the
// set-up times (calibrated, raw), then releases the pass's operation log so
// the harness's own records are not counted as the program's live heap.
func (m *measurement) endToEndOf(p *pass, setupS, rawSetupS float64, inputHeap uint64) {
	cal, raw := p.headline()
	p.done = nil
	m.e2e = map[string]float64{
		"ops_per_s":    cal.rate,
		"op_ms_p50":    cal.p50,
		"op_ms_p90":    cal.p90,
		"heap_live_mb": float64(heapLive()-inputHeap) / mib,
		"setup_s":      setupS,
	}
	m.raw = map[string]float64{"ops_per_s": raw.rate, "op_ms_p50": raw.p50, "op_ms_p90": raw.p90, "setup_s": rawSetupS}
}

// procLayer fills the proc.* metrics from a pass.
func procLayer(out map[string]float64, p *pass) {
	out["proc.cpu_s"] = p.cpuS
	if n := p.ops(); n > 0 {
		out["proc.allocs_per_op"] = float64(p.mallocs) / float64(n)
	}
	out["proc.gc_pause_ms"] = p.gcPauseMS
	out["proc.gc_cycles"] = float64(p.gcCycles)
	out["proc.peak_rss_mb"] = peakRSSMiB()
}

// tracedLayer fills what every traced pass yields whatever the workload: its
// own rate (calibrated, and as the wall clock read it at the machine speed the
// pass saw) and plain median latency, the share of throughput it lost against
// the untraced pass before it, the share of that median the blocking-path
// layers (blockingMS, replayed in isolation) explain, and the proc.* metrics.
// The ledger compares plain medians with a plain median: the replayed layer
// figures are wall-clock times, so the operation they explain is too.
func tracedLayer(out map[string]float64, untracedRate float64, traced *pass, blockingMS float64) {
	cal, raw := traced.headline()
	rate, p50 := cal.rate, raw.p50
	out["bench.traced_ops_per_s"] = rate
	out["bench.traced_op_ms_p50"] = p50
	out["bench.raw_ops_per_s"] = raw.rate
	out["bench.machine_speed"] = mid(traced.stintFigures(func(s stintStat) float64 { return s.speed }))
	if untracedRate > 0 {
		out["trace.overhead_share"] = 1 - rate/untracedRate
	}
	if p50 > 0 {
		out["ledger.attributed_share"] = blockingMS / p50
	}
	procLayer(out, traced)
}

// passes runs the workload's timed part: one untraced pass of d, or — for a
// traced run — an untraced and a traced pass of d/2 each, so the difference
// between them is the tracing overhead.
func passes(d time.Duration, trace bool, run func(d time.Duration, traced bool) (*pass, error)) (untraced, traced *pass, err error) {
	if !trace {
		untraced, err = run(d, false)
		return untraced, nil, err
	}
	if untraced, err = run(d/2, false); err != nil {
		return nil, nil, err
	}
	traced, err = run(d/2, true)
	return untraced, traced, err
}

// collect folds the passes into m.
func (m *measurement) collect(ps ...*pass) {
	for _, p := range ps {
		if p == nil {
			continue
		}
		m.attempted += p.attempted
		m.failed += p.failed
		m.checks = append(m.checks, p.checks...)
		m.spans = append(m.spans, p.spans...)
	}
}

// passNote states what is behind the headline: the operation count and the
// highest percentile it supports, and the machine speeds the pass saw.
func passNote(p *pass) string {
	n := len(p.done)
	tail := "none"
	if hp := highestSupported(n); hp > 0 {
		tail = fmt.Sprintf("p%g", hp)
	}
	speeds := sorted(p.stintFigures(func(s stintStat) float64 { return s.speed }))
	return fmt.Sprintf("%d timed operations (highest percentile with ten beyond it: %s); machine speed %.2f-%.2f of the reference",
		n, tail, speeds[0], speeds[len(speeds)-1])
}

// runWorkload measures sp once.
func runWorkload(sp spec, seed int64, d time.Duration, trace bool, outDir string) (*measurement, error) {
	tg := time.Now()
	in, err := generate(seed, sp.gen)
	if err != nil {
		return nil, err
	}
	genS := time.Since(tg).Seconds()
	inputHeap := heapLive()
	scratch, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var m *measurement
	switch sp.kind {
	case kindIngest, kindStorm:
		m, err = runServing(sp, in, d, trace, inputHeap, scratch)
	case kindTrain:
		m, err = runTrain(sp, in, d, trace, inputHeap, scratch)
	case kindPersist:
		m, err = runPersist(sp, in, d, trace, inputHeap, scratch)
	}
	if err != nil {
		return nil, err
	}
	if m.layer != nil {
		m.layer["bench.inputgen_s"] = genS
	}
	m.notes = append(m.notes, fmt.Sprintf("input generation: %.3f s (not part of setup_s)", genS))
	return m, nil
}

// runServing measures an ingest or storm workload against an in-process
// server on a loopback socket.
func runServing(sp spec, in *inputs, d time.Duration, trace bool, inputHeap uint64, scratch string) (*measurement, error) {
	drop := func(f *fixture) { _ = f.close() }
	ref, fx, setupS, rawSetupS, err := setup(func() (*fixture, error) { return serve(sp, in) }, drop)
	if err != nil {
		return nil, err
	}
	defer func() { _ = fx.close() }()

	// The library's answers, from the first instance: a separate system, so
	// the measured one's caches never see these windows.
	refSys := ref.srv.System()
	scs := make([]*servingClient, clients)
	var closers []func()
	for i := range scs {
		c, closeIdle := fx.newClient()
		scs[i] = &servingClient{c: c}
		closers = append(closers, closeIdle)
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	checkRefs := make(map[*ctxInput]verdict)
	var acc top1
	for i, c := range in.ctxs {
		sc := scs[i%clients]
		sc.ctxs = append(sc.ctxs, c)
		sc.batch = append(sc.batch, frames(c.replay, sp.frameTicks))
		var refs []verdict
		if sp.kind == kindStorm {
			for _, v := range c.verdicts {
				r, err := reference(refSys, c.ctx, v.samples)
				if err != nil {
					return nil, fmt.Errorf("bench: reference verdict: %w", err)
				}
				refs = append(refs, r)
				acc.Windows++
				if r.cause == v.label {
					acc.Hits++
				}
			}
		} else {
			r, err := reference(refSys, c.ctx, checkWindow(sp, c))
			if err != nil {
				return nil, fmt.Errorf("bench: reference verdict: %w", err)
			}
			checkRefs[c] = r
		}
		sc.refs = append(sc.refs, refs)
		sc.cursor = append(sc.cursor, 0)
	}
	refSys = nil
	drop(ref)
	ref = nil

	untraced, traced, err := passes(d, trace, func(d time.Duration, tr bool) (*pass, error) {
		return servingPass(sp, scs, d, tr)
	})
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	m.collect(untraced, traced)
	if sp.kind == kindIngest {
		ep := &pass{}
		digest, err := ingestEpilogue(sp, scs, checkRefs, ep)
		if err != nil {
			return nil, err
		}
		m.collect(ep)
		m.digest = fmt.Sprintf("%016x", digest)
	}
	m.notes = append(m.notes, passNote(untraced))
	m.endToEndOf(untraced, setupS, rawSetupS, inputHeap)
	if sp.kind == kindStorm {
		m.top1 = &acc
		m.notes = append(m.notes, fmt.Sprintf("top-1 accuracy: the root cause of %d of the seed's %d held-out fault windows is the injected fault", acc.Hits, acc.Windows))
	}
	if traced == nil {
		return m, nil
	}

	layer, errs := replayLayers(sp, in, fx.srv.System(), fx, scratch)
	m.checks = append(m.checks, errs...)
	if m.top1 != nil {
		layer["core.top1_accuracy"] = m.top1.share()
	}
	tracedLayer(layer, m.e2e["ops_per_s"], traced, servingLayer(layer, sp, traced))
	m.layer = layer
	return m, nil
}

// servingLayer fills the per-layer metrics a traced serving pass yields
// directly — latency splits from the spans and the server's own counters —
// and returns what the replayed layers on an operation's blocking path sum
// to, in ms.
func servingLayer(out map[string]float64, sp spec, p *pass) float64 {
	d := func(f func(*server.Stats) int64) float64 { return float64(f(p.after) - f(p.before)) }
	out["server.ingest_batches"] = d(func(s *server.Stats) int64 { return s.IngestBatches })
	out["server.ingest_shed"] = d(func(s *server.Stats) int64 { return s.IngestShed })
	out["server.diagnose_shed"] = d(func(s *server.Stats) int64 { return s.DiagnoseShed })
	out["server.detect_tasks"] = d(func(s *server.Stats) int64 { return s.DetectTasks })
	out["server.alerts"] = d(func(s *server.Stats) int64 { return s.Alerts })
	out["server.reports_failed"] = d(func(s *server.Stats) int64 { return s.ReportsFailed })
	out["server.queue_depth_max"] = float64(p.maxDepth)
	out["core.assoc_cache_hits"] = d(func(s *server.Stats) int64 { return s.AssocCacheHits })
	out["core.assoc_cache_misses"] = d(func(s *server.Stats) int64 { return s.AssocCacheMisses })

	self := selfTimes(p.spans)
	frameRTT := medianMS(self["ingest_frame"]) * 1000
	framesPerOp := float64(sp.opFrames())
	handler := out["server.ingest_handler_us"]
	if sp.json {
		handler = out["server.ingest_handler_json_us"]
	}
	out["server.transport_us"] = frameRTT - handler

	blocking := framesPerOp * (out["server.frame_encode_us"] + handler) // us per operation
	if sp.kind == kindStorm && p.verdicts > 0 {
		v := float64(p.verdicts)
		screened := d(func(s *server.Stats) int64 { return s.SparseScreenedPairs })
		exact := d(func(s *server.Stats) int64 { return s.SparseExactPairs })
		unknown := d(func(s *server.Stats) int64 { return s.SparseSkippedPairs })
		out["invariant.pairs_screened"] = screened / v
		out["invariant.pairs_exact"] = exact / v
		out["invariant.pairs_unknown"] = unknown / v
		if screened+exact > 0 {
			out["invariant.screen_hit_ratio"] = screened / (screened + exact)
		}
		scanned := d(func(s *server.Stats) int64 { return s.SigScanEntries })
		out["signature.scan_entries_per_query"] = scanned / v
		if scanned > 0 {
			out["signature.early_exit_ratio"] = d(func(s *server.Stats) int64 { return s.SigScanEarlyExits }) / scanned
		}
		if q := d(func(s *server.Stats) int64 { return s.SigIndexQueries }); q > 0 {
			out["signature.index_candidates_per_query"] = d(func(s *server.Stats) int64 { return s.SigIndexCandidates }) / q
		}
		out["server.diagnose_ms_p50"] = median(p.diagMS)
		// What the diagnose round trip spent outside the diagnosis task:
		// transport, queueing behind the stream's own ingest, report encode.
		out["server.queue_wait_ms"] = medianMS(self["diagnose_rtt"])
		out["server.verdict_ms_p99"] = percentile(p.latencies(), 99)

		edges, match := out["invariant.edges_clean_us"], out["signature.match_scan_us"]
		if sp.gen.maskP > 0 {
			edges, match = out["invariant.edges_masked_us"], out["signature.match_masked_us"]
		}
		blocking += out["mic.slider_snapshot_us"] + edges + match
	}
	return blocking / 1000
}

// splitContexts deals the contexts round-robin to the offline workers.
func splitContexts(in *inputs) [][]*ctxInput {
	out := make([][]*ctxInput, clients)
	for i, c := range in.ctxs {
		out[i%clients] = append(out[i%clients], c)
	}
	return out
}

// setDigest fingerprints a context's trained invariant set: the pairs and
// their baselines.
func setDigest(sys *core.System, ctx core.Context) (uint64, error) {
	set, err := sys.Invariants(ctx)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, p := range set.SortedPairs() {
		fmt.Fprintf(h, "%d,%d,%x;", p.I, p.J, math.Float64bits(set.Base[p]))
	}
	return h.Sum64(), nil
}

// offlinePass runs one pass of an offline workload: work performs worker w's
// operations until end, recording spans through rec (nil when untraced or
// warming up) and failures through p.
func offlinePass(d time.Duration, traced bool, work func(w int, p *pass, rec *recorder, epoch, end time.Time) ([]op, error)) (*pass, error) {
	u0 := readUsage()
	epoch := time.Now()
	ps := make([]pass, clients)
	recs := make([]*recorder, clients)
	if traced {
		for w := range recs {
			recs[w] = newRecorder(epoch, int32(w)<<26)
		}
	}
	p := &pass{}
	var err error
	p.stints, p.done, err = runStints(epoch, d, func(w int, timed bool, end time.Time) ([]op, error) {
		rec := recs[w]
		if !timed {
			rec = nil
		}
		return work(w, &ps[w], rec, epoch, end)
	}, nil, false)
	if err != nil {
		return nil, err
	}
	p.usageSince(u0)
	for w := range ps {
		p.attempted += ps[w].attempted
		p.failed += ps[w].failed
		p.checks = append(p.checks, ps[w].checks...)
		if recs[w] != nil {
			p.spans = append(p.spans, recs[w].spans...)
		}
	}
	return p, nil
}

// runTrain measures offline training: each worker repeatedly builds a fresh
// system and trains the contexts it owns; one operation is one context.
func runTrain(sp spec, in *inputs, d time.Duration, trace bool, inputHeap uint64, scratch string) (*measurement, error) {
	build := func() (*core.System, error) {
		sys := core.New(core.DefaultConfig())
		return sys, buildSystem(sys, in)
	}
	ref, _, setupS, rawSetupS, err := setup(build, func(*core.System) {})
	if err != nil {
		return nil, err
	}
	want := make(map[core.Context]uint64)
	for _, c := range in.ctxs {
		if want[c.ctx], err = setDigest(ref, c.ctx); err != nil {
			return nil, err
		}
	}
	owned := splitContexts(in)
	// Each worker keeps training where the previous stint stopped: a fresh
	// system whenever it has been through all its contexts.
	var next [clients]int
	var sys [clients]*core.System
	var traceID [clients]int64
	untraced, traced, err := passes(d, trace, func(d time.Duration, tr bool) (*pass, error) {
		return offlinePass(d, tr, func(w int, p *pass, rec *recorder, epoch, end time.Time) ([]op, error) {
			var done []op
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return done, nil
				}
				if next[w]%len(owned[w]) == 0 {
					sys[w] = core.New(core.DefaultConfig())
				}
				c := owned[w][next[w]%len(owned[w])]
				next[w]++
				p.attempted++
				if err := sys[w].TrainPerformanceModel(c.ctx, c.cpis); err != nil {
					return nil, err
				}
				t1 := time.Now()
				if err := sys[w].TrainInvariants(c.ctx, c.windows); err != nil {
					return nil, err
				}
				t2 := time.Now()
				got, err := setDigest(sys[w], c.ctx)
				if err != nil {
					return nil, err
				}
				if got != want[c.ctx] {
					p.failed++
					p.fail("%v: trained invariant set %016x, reference %016x", c.ctx, got, want[c.ctx])
				}
				done = append(done, op{t0.Sub(epoch), t2.Sub(epoch), 1})
				trace := int64(w)<<40 | traceID[w]
				traceID[w]++
				root := rec.add(trace, -1, "train_context", t0, t2)
				rec.add(trace, root, "core.train_model", t0, t1)
				rec.add(trace, root, "core.train_invariants", t1, t2)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	m.collect(untraced, traced)
	// The live heap is the trained reference system: what 16 contexts of
	// models and invariants occupy.
	m.notes = append(m.notes, passNote(untraced))
	m.endToEndOf(untraced, setupS, rawSetupS, inputHeap)
	runtime.KeepAlive(ref)
	if traced == nil {
		return m, nil
	}
	layer, errs := replayLayers(sp, in, ref, nil, scratch)
	m.checks = append(m.checks, errs...)
	// The timed loop's medians replace the replay's handful of calls.
	layer["core.train_model_ms"] = spanMedianMS(traced.spans, "core.train_model")
	layer["core.train_invariants_ms"] = spanMedianMS(traced.spans, "core.train_invariants")
	tracedLayer(layer, m.e2e["ops_per_s"], traced, layer["core.train_model_ms"]+layer["core.train_invariants_ms"])
	m.layer = layer
	return m, nil
}

// causesOf renders a diagnosis' full ranked cause list for comparison.
func causesOf(sys *core.System, c *ctxInput) (string, error) {
	d, err := sys.Diagnose(c.ctx, c.verdicts[0].trace)
	if err != nil {
		return "", err
	}
	s := d.Tuple.String()
	for _, cause := range d.Causes {
		s += fmt.Sprintf(";%s=%x", cause.Problem, math.Float64bits(cause.Score))
	}
	return s, nil
}

// savedSystem is a trained system and the store directory it was saved to.
type savedSystem struct {
	sys *core.System
	dir string
}

// runPersist measures restart cost. Set-up trains the system and saves it to
// a store directory (so SaveTo, fsyncs included, is part of setup_s); each
// worker then repeatedly restores that store into a fresh system. One
// operation is one LoadFrom: reading a store the page cache holds is
// processor work, which the calibration can follow — a save's fsyncs wait on
// the host's disk, which it cannot.
func runPersist(sp spec, in *inputs, d time.Duration, trace bool, inputHeap uint64, scratch string) (*measurement, error) {
	builds := 0
	build := func() (savedSystem, error) {
		s := savedSystem{sys: core.New(core.DefaultConfig()), dir: filepath.Join(scratch, fmt.Sprintf("store-%d", builds))}
		builds++
		if err := buildSystem(s.sys, in); err != nil {
			return s, err
		}
		return s, s.sys.SaveTo(s.dir)
	}
	_, saved, setupS, rawSetupS, err := setup(build, func(savedSystem) {})
	if err != nil {
		return nil, err
	}
	sys := saved.sys
	wantSigs := sys.SignatureCount()
	want := make(map[*ctxInput]string)
	for _, c := range in.ctxs {
		if want[c], err = causesOf(sys, c); err != nil {
			return nil, err
		}
	}
	restored := make([]*core.System, clients)
	var traceID [clients]int64
	untraced, traced, err := passes(d, trace, func(d time.Duration, tr bool) (*pass, error) {
		return offlinePass(d, tr, func(w int, p *pass, rec *recorder, epoch, end time.Time) ([]op, error) {
			var done []op
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return done, nil
				}
				p.attempted++
				back := core.New(core.DefaultConfig())
				rep, err := back.LoadFrom(saved.dir)
				if err != nil {
					return nil, err
				}
				t1 := time.Now()
				restored[w] = back
				if got := back.SignatureCount(); rep.Partial() || got != wantSigs {
					p.failed++
					p.fail("restore: %d signatures (saved %d), report %v", got, wantSigs, rep)
				}
				done = append(done, op{t0.Sub(epoch), t1.Sub(epoch), 1})
				rec.add(int64(w)<<40|traceID[w], -1, "xmlstore.restore", t0, t1)
				traceID[w]++
			}
		})
	})
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	m.collect(untraced, traced)
	// A restored system must answer exactly as the one that was saved.
	for _, back := range restored {
		if back == nil {
			m.checks = append(m.checks, "persist: a worker completed no cycle")
			continue
		}
		for _, c := range in.ctxs {
			got, err := causesOf(back, c)
			if err != nil {
				return nil, err
			}
			if got != want[c] {
				m.checks = append(m.checks, fmt.Sprintf("%v: restored system diagnoses %s, original %s", c.ctx, got, want[c]))
			}
		}
	}
	restored = nil
	m.notes = append(m.notes, passNote(untraced))
	m.endToEndOf(untraced, setupS, rawSetupS, inputHeap)
	if traced == nil {
		return m, nil
	}
	layer, errs := replayLayers(sp, in, sys, nil, scratch)
	m.checks = append(m.checks, errs...)
	// The timed loop's median replaces the replay's single restore.
	layer["xmlstore.restore_ms"] = spanMedianMS(traced.spans, "xmlstore.restore")
	tracedLayer(layer, m.e2e["ops_per_s"], traced, layer["xmlstore.restore_ms"])
	m.layer = layer
	return m, nil
}
