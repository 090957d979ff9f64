package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"invarnetx/internal/arima"
	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/server"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// This file is the layer-replay phase of a traced run: direct, timed calls
// into each layer's exported functions on the same generated inputs the
// workload just served. Prefixes are the module names. Every workload
// reports every metric; a layer a workload has no input for (no server, no
// signatures) reports 0.

// perLayer lists the per-layer metrics in reporting order. They carry no
// bound; "better" states the direction an optimisation should move them.
var perLayer = []metricDef{
	// server: the wire and the serving-side stream state
	{Name: "server.frame_encode_us", Unit: "us", Better: "lower"},
	{Name: "server.ingest_handler_us", Unit: "us", Better: "lower"},
	{Name: "server.ingest_handler_json_us", Unit: "us", Better: "lower"},
	{Name: "server.transport_us", Unit: "us", Better: "lower"},
	{Name: "server.trace_build_us", Unit: "us", Better: "lower"},
	{Name: "server.diagnose_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.verdict_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_batches", Unit: "count", Better: "higher"},
	{Name: "server.ingest_shed", Unit: "count", Better: "lower"},
	{Name: "server.diagnose_shed", Unit: "count", Better: "lower"},
	{Name: "server.detect_tasks", Unit: "count", Better: "higher"},
	{Name: "server.alerts", Unit: "count", Better: "lower"},
	{Name: "server.reports_failed", Unit: "count", Better: "lower"},
	{Name: "server.queue_depth_max", Unit: "count", Better: "lower"},
	// mic: incremental and batch preparation, prescreen and exact scoring
	{Name: "mic.slider_append_us", Unit: "us", Better: "lower"},
	{Name: "mic.slider_snapshot_us", Unit: "us", Better: "lower"},
	{Name: "mic.prepare_us", Unit: "us", Better: "lower"},
	{Name: "mic.screen_us_per_pair", Unit: "us", Better: "lower"},
	{Name: "mic.exact_us_per_pair", Unit: "us", Better: "lower"},
	// detect / arima: drift detection online and its training
	{Name: "detect.offer_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "arima.forecast_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "detect.train_ms", Unit: "ms", Better: "lower"},
	{Name: "arima.autofit_ms", Unit: "ms", Better: "lower"},
	// invariant: sparse edge evaluation and dense training
	{Name: "invariant.edges_clean_us", Unit: "us", Better: "lower"},
	{Name: "invariant.edges_masked_us", Unit: "us", Better: "lower"},
	{Name: "invariant.matrix_ms", Unit: "ms", Better: "lower"},
	{Name: "invariant.select_us", Unit: "us", Better: "lower"},
	{Name: "invariant.pairs_screened", Unit: "count", Better: "higher"},
	{Name: "invariant.pairs_exact", Unit: "count", Better: "lower"},
	{Name: "invariant.pairs_unknown", Unit: "count", Better: "lower"},
	{Name: "invariant.screen_hit_ratio", Unit: "ratio", Better: "higher"},
	// core: the diagnosis pipeline as one call, its caches, its training
	{Name: "core.diagnose_ms", Unit: "ms", Better: "lower"},
	{Name: "core.violations_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.assoc_cache_hits", Unit: "count", Better: "higher"},
	{Name: "core.assoc_cache_misses", Unit: "count", Better: "lower"},
	{Name: "core.train_invariants_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_model_ms", Unit: "ms", Better: "lower"},
	{Name: "core.top1_accuracy", Unit: "ratio", Better: "higher"},
	// signature: retrieval arms over the same database
	{Name: "signature.match_scan_us", Unit: "us", Better: "lower"},
	{Name: "signature.match_masked_us", Unit: "us", Better: "lower"},
	{Name: "signature.match_indexed_us", Unit: "us", Better: "lower"},
	{Name: "signature.scan_entries_per_query", Unit: "count", Better: "lower"},
	{Name: "signature.early_exit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "signature.index_candidates_per_query", Unit: "count", Better: "lower"},
	// xmlstore: persistence
	{Name: "xmlstore.save_ms", Unit: "ms", Better: "lower"},
	{Name: "xmlstore.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "xmlstore.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "xmlstore.files_written", Unit: "count", Better: "lower"},
	// proc: the process over the traced pass
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	// the reconciliation: how much of an operation the replayed layers
	// explain, and what recording spans cost
	{Name: "ledger.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	// the traced pass's own headline, so the per-layer set stands alone; the
	// same rate uncalibrated, with the machine speed that explains the
	// difference; and the benchmark's input generation time
	{Name: "bench.traced_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.traced_op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.raw_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.machine_speed", Unit: "ratio", Better: "higher"},
	{Name: "bench.inputgen_s", Unit: "s", Better: "lower"},
}

// maxProbe bounds how many timed calls one probe makes and probeBudget how
// long it may keep making them (a handful are always made), which bounds the
// replay phase to a few seconds whatever the workload.
const (
	maxProbe    = 100
	minProbe    = 5
	probeBudget = 300 * time.Millisecond
)

// medianUS times up to n calls of fn within the probe budget and returns the
// median call in microseconds.
func medianUS(n int, fn func(i int)) float64 {
	var xs []float64
	start := time.Now()
	for i := 0; i < n && (i < minProbe || time.Since(start) < probeBudget); i++ {
		t0 := time.Now()
		fn(i)
		xs = append(xs, us(time.Since(t0)))
	}
	return median(xs)
}

// replay holds what the probes share.
type replay struct {
	sp   spec
	in   *inputs
	sys  *core.System // trained on in
	fx   *fixture     // nil for the offline workloads
	out  map[string]float64
	errs []string

	wins   []*metrics.Trace // clean 30-tick windows, held-out fault windows first
	winCtx []*ctxInput      // the context each window belongs to
	masked []*metrics.Trace // the same windows with masked entries
}

func (r *replay) errf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// replayLayers runs every probe and returns the per-layer values plus any
// probe failures (a probe that cannot run is a benchmark defect, reported as
// an output-check failure).
func replayLayers(sp spec, in *inputs, sys *core.System, fx *fixture, storeDir string) (map[string]float64, []string) {
	r := &replay{sp: sp, in: in, sys: sys, fx: fx, out: make(map[string]float64)}
	rng := stats.NewRNG(in.seed ^ 0x1a7e5)
	for _, c := range in.ctxs {
		for _, v := range c.verdicts {
			r.addWindow(c, v.trace, v.samples, sp.gen.maskP > 0, rng)
		}
	}
	for _, c := range in.ctxs {
		for _, w := range c.windows {
			if len(r.wins) >= maxProbe {
				break
			}
			r.addWindow(c, w, samplesOf(w, 0, w.Len()), false, rng)
		}
	}
	if fx != nil {
		r.serverProbes()
	}
	r.micProbes()
	r.detectProbes()
	r.invariantProbes()
	r.coreProbes()
	r.signatureProbes()
	r.storeProbe(storeDir)
	return r.out, r.errs
}

// addWindow registers a clean window and its masked twin. Wire samples that
// already carry masks (storm_degraded's fault windows) keep them; the others
// are masked here at the same 3% rate, so the masked arm is probed on every
// workload.
func (r *replay) addWindow(c *ctxInput, clean *metrics.Trace, wire []server.Sample, wireMasked bool, rng *stats.RNG) {
	masked := wire
	if !wireMasked {
		masked = make([]server.Sample, len(wire))
		for i, s := range wire {
			masked[i] = server.Sample{Metrics: append([]float64(nil), s.Metrics...), CPI: s.CPI}
		}
		maskSamples(masked, 0.03, rng)
	}
	mt, err := server.TraceFromSamples(c.ctx.Workload, c.ctx.IP, masked)
	if err != nil {
		r.errf("masked window: %v", err)
		return
	}
	r.wins = append(r.wins, clean)
	r.winCtx = append(r.winCtx, c)
	r.masked = append(r.masked, mt)
}

func (r *replay) probes() int {
	if len(r.wins) < maxProbe {
		return len(r.wins)
	}
	return maxProbe
}

// serverProbes times the wire codec and the ingest handlers in-process, on
// the frames the workload sends.
func (r *replay) serverProbes() {
	c := r.in.ctxs[0]
	frame := c.replay[:r.sp.frameTicks]
	var buf []byte
	r.out["server.frame_encode_us"] = medianUS(maxProbe, func(int) {
		var err error
		if buf, err = server.AppendFrame(buf[:0], c.ctx.Workload, c.ctx.IP, frame); err != nil {
			r.errf("frame encode: %v", err)
		}
	})
	jsonBody, err := json.Marshal(server.IngestRequest{Workload: c.ctx.Workload, Node: c.ctx.IP, Samples: frame})
	if err != nil {
		r.errf("json encode: %v", err)
		return
	}
	h := r.fx.srv.Handler()
	// Fewer calls than the queue bound, so admission never sheds; the
	// asynchronous apply is not on the handler's clock.
	post := func(body []byte, contentType string) float64 {
		return medianUS(queueCap/2, func(int) {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				r.errf("in-process ingest: HTTP %d", rec.Code)
			}
		})
	}
	r.out["server.ingest_handler_us"] = post(buf, server.ContentTypeFrame)
	r.drain()
	r.out["server.ingest_handler_json_us"] = post(jsonBody, "application/json")
	r.drain()

	window := c.replay[:r.sp.windowCap]
	r.out["server.trace_build_us"] = medianUS(maxProbe, func(int) {
		if _, err := server.TraceFromSamples(c.ctx.Workload, c.ctx.IP, window); err != nil {
			r.errf("trace build: %v", err)
		}
	})
}

// drain waits until the server has applied everything it admitted.
func (r *replay) drain() {
	c, closeIdle := r.fx.newClient()
	defer closeIdle()
	if _, err := drained(context.Background(), c); err != nil {
		r.errf("stats: %v", err)
	}
}

// columns transposes samples into per-metric columns.
func columns(samples []server.Sample) [][]float64 {
	cols := make([][]float64, metrics.Count)
	for m := range cols {
		cols[m] = make([]float64, len(samples))
		for t, s := range samples {
			cols[m][t] = s.Metrics[m]
		}
	}
	return cols
}

// micProbes times the incremental sliders at the workload's window and frame
// size, and batch preparation, prescreen and exact scoring on 30-tick
// windows over the trained pairs.
func (r *replay) micProbes() {
	c := r.in.ctxs[0]
	cols := columns(c.replay)
	capTicks, step := r.sp.windowCap, r.sp.frameTicks
	if capTicks == 0 { // offline workloads: the serving defaults
		capTicks, step = server.DefaultWindowCap, 24
	}
	valid := make([]bool, len(c.replay))
	for i := range valid {
		valid[i] = true
	}
	sliders := make([]*mic.Slider, metrics.Count)
	for m := range sliders {
		sliders[m] = mic.NewSlider(capTicks, mic.DefaultConfig())
		sliders[m].AppendBatch(cols[m][:capTicks], valid[:capTicks])
	}
	nFrames := (len(c.replay) - capTicks) / step
	advance := func(i int) {
		lo := capTicks + (i%nFrames)*step
		for m, sl := range sliders {
			sl.AppendBatch(cols[m][lo:lo+step], valid[lo:lo+step])
		}
	}
	r.out["mic.slider_append_us"] = medianUS(maxProbe, advance)
	snapshot := make([]float64, maxProbe)
	for i := range snapshot {
		advance(i)
		t0 := time.Now()
		preps := make([]*mic.Prepared, len(sliders))
		for m, sl := range sliders {
			p, err := sl.Prepared()
			if err != nil {
				r.errf("slider snapshot: %v", err)
				return
			}
			preps[m] = p
		}
		if _, err := mic.NewBatchPrepared(preps); err != nil {
			r.errf("slider batch: %v", err)
			return
		}
		snapshot[i] = us(time.Since(t0))
	}
	r.out["mic.slider_snapshot_us"] = median(snapshot)

	n := r.probes()
	var prep, screen, exact []float64
	for i := 0; i < n; i++ {
		set, err := r.sys.Invariants(r.winCtx[i].ctx)
		if err != nil {
			r.errf("invariants: %v", err)
			return
		}
		t0 := time.Now()
		b, err := mic.NewBatch(r.wins[i].Rows, mic.DefaultConfig())
		t1 := time.Now()
		if err != nil {
			r.errf("mic batch: %v", err)
			return
		}
		pairs := set.SortedPairs()
		if len(pairs) == 0 {
			continue
		}
		var sink float64
		for _, p := range pairs {
			sink += b.ScreenLow(p.I, p.J)
		}
		t2 := time.Now()
		for _, p := range pairs {
			sink += b.Score(p.I, p.J)
		}
		t3 := time.Now()
		benchSink += sink
		per := float64(len(pairs))
		prep = append(prep, us(t1.Sub(t0)))
		screen = append(screen, us(t2.Sub(t1))/per)
		exact = append(exact, us(t3.Sub(t2))/per)
	}
	r.out["mic.prepare_us"] = median(prep)
	r.out["mic.screen_us_per_pair"] = median(screen)
	r.out["mic.exact_us_per_pair"] = median(exact)
}

// benchSink keeps probe results alive so the compiler cannot drop the calls.
var benchSink float64

// detectProbes times the online drift monitor per CPI sample, the ARIMA
// forecaster step underneath it, and their training.
func (r *replay) detectProbes() {
	c := r.in.ctxs[0]
	det, err := r.sys.Detector(c.ctx)
	if err != nil {
		r.errf("detector: %v", err)
		return
	}
	var cpi []float64
	for _, run := range c.cpis {
		cpi = append(cpi, run...)
	}
	const rounds = 20
	mon := det.NewMonitor(cpi[:16])
	mon.DisableLog = true
	t0 := time.Now()
	for k := 0; k < rounds; k++ {
		for _, v := range cpi {
			mon.Offer(v)
			if mon.Alert() {
				mon.Reset()
			}
		}
	}
	r.out["detect.offer_ns_per_sample"] = float64(time.Since(t0)) / float64(rounds*len(cpi))
	fc := det.Model.NewForecaster()
	t0 = time.Now()
	for k := 0; k < rounds; k++ {
		for _, v := range cpi {
			p, _ := fc.PredictNext() // too-early steps report an error and 0
			benchSink += p
			fc.Observe(v)
		}
	}
	r.out["arima.forecast_ns_per_step"] = float64(time.Since(t0)) / float64(rounds*len(cpi))

	n := len(r.in.ctxs)
	if n > 8 {
		n = 8
	}
	cfg := detect.DefaultConfig()
	r.out["detect.train_ms"] = medianUS(n, func(i int) {
		if _, err := detect.Train(r.in.ctxs[i].cpis, cfg); err != nil {
			r.errf("detect train: %v", err)
		}
	}) / 1000
	r.out["arima.autofit_ms"] = medianUS(n, func(i int) {
		if _, err := arima.AutoFit(r.in.ctxs[i].cpis[0], cfg.Select); err != nil {
			r.errf("arima autofit: %v", err)
		}
	}) / 1000
}

// invariantProbes times the sparse edge loops (clean and masked arm) on the
// replay windows and the dense training path on the training windows.
func (r *replay) invariantProbes() {
	cfg := r.sys.Config()
	n := r.probes()
	var clean, masked []float64
	for i := 0; i < n; i++ {
		set, err := r.sys.Invariants(r.winCtx[i].ctx)
		if err != nil {
			r.errf("invariants: %v", err)
			return
		}
		b, err := mic.NewBatch(r.wins[i].Rows, mic.DefaultConfig())
		if err != nil {
			r.errf("mic batch: %v", err)
			return
		}
		t0 := time.Now()
		if _, _, err := set.ComputeEdgesScored(b, cfg.Epsilon); err != nil {
			r.errf("clean edges: %v", err)
			return
		}
		clean = append(clean, us(time.Since(t0)))

		mt := r.masked[i]
		// As core does: a batch over the masked rows serves the fully
		// observed pairs; a preparation error drops that tier.
		var scorer invariant.PairScorer
		if mb, err := mic.NewBatch(mt.Rows, mic.DefaultConfig()); err == nil {
			scorer = mb
		}
		t0 = time.Now()
		if _, _, _, err := set.ComputeEdgesMasked(mt.Rows, mt.Valid, cfg.Assoc, scorer, 0, cfg.Epsilon); err != nil {
			r.errf("masked edges: %v", err)
			return
		}
		masked = append(masked, us(time.Since(t0)))
	}
	r.out["invariant.edges_clean_us"] = median(clean)
	r.out["invariant.edges_masked_us"] = median(masked)

	c := r.in.ctxs[0]
	mats := make([]*invariant.Matrix, len(c.windows))
	r.out["invariant.matrix_ms"] = medianUS(len(c.windows), func(i int) {
		b, err := mic.NewBatch(c.windows[i].Rows, mic.DefaultConfig())
		if err == nil {
			mats[i], err = invariant.ComputeMatrixScored(len(c.windows[i].Rows), b)
		}
		if err != nil {
			r.errf("dense matrix: %v", err)
		}
	}) / 1000
	if len(r.errs) > 0 {
		return
	}
	r.out["invariant.select_us"] = medianUS(maxProbe, func(int) {
		if _, err := invariant.Select(mats, cfg.Tau); err != nil {
			r.errf("select: %v", err)
		}
	})
}

// coreProbes times the diagnosis pipeline as single library calls on fresh
// windows (report-cache misses by construction: each window is used once),
// a repeated window (the cache hit), and per-context training.
func (r *replay) coreProbes() {
	n := r.probes()
	var diag, viol []float64
	for i := 0; i < n; i++ {
		ctx, win := r.winCtx[i].ctx, r.wins[i]
		if r.sp.gen.maskP > 0 {
			win = r.masked[i] // the arm this workload's verdicts take
		}
		t0 := time.Now()
		var err error
		if i%2 == 0 {
			_, err = r.sys.Diagnose(ctx, win)
			diag = append(diag, ms(time.Since(t0)))
		} else {
			_, err = r.sys.Violations(ctx, win)
			viol = append(viol, ms(time.Since(t0)))
		}
		if err != nil {
			r.errf("core diagnose: %v", err)
			return
		}
	}
	r.out["core.diagnose_ms"] = median(diag)
	r.out["core.violations_ms"] = median(viol)
	r.out["core.report_cache_hit_us"] = medianUS(maxProbe, func(int) {
		if _, err := r.sys.Violations(r.winCtx[0].ctx, r.wins[0]); err != nil {
			r.errf("cached violations: %v", err)
		}
	})

	fresh := core.New(core.DefaultConfig())
	nc := len(r.in.ctxs)
	if nc > 8 {
		nc = 8
	}
	r.out["core.train_model_ms"] = medianUS(nc, func(i int) {
		c := r.in.ctxs[i]
		if err := fresh.TrainPerformanceModel(c.ctx, c.cpis); err != nil {
			r.errf("train model: %v", err)
		}
	}) / 1000
	r.out["core.train_invariants_ms"] = medianUS(nc, func(i int) {
		c := r.in.ctxs[i]
		if err := fresh.TrainInvariants(c.ctx, c.windows); err != nil {
			r.errf("train invariants: %v", err)
		}
	}) / 1000
}

// signatureProbes times the three retrieval arms on one context's database:
// the scoped scan (MinScore 0, what every default-config verdict runs), the
// masked scan, and the inverted index (the same entries at MinScore 0.3).
func (r *replay) signatureProbes() {
	c := r.in.ctxs[0]
	db := r.sys.Profile(c.ctx).SignatureSnapshot()
	if db.Len() == 0 {
		return
	}
	indexed := db.Clone()
	indexed.MinScore = 0.3
	var tuples []signature.Tuple
	var known [][]bool
	rng := stats.NewRNG(r.in.seed ^ 0x51675)
	for i, w := range r.wins {
		if r.winCtx[i] != c || len(tuples) >= maxProbe {
			continue
		}
		rep, err := r.sys.Violations(c.ctx, w)
		if err != nil {
			r.errf("query tuple: %v", err)
			return
		}
		k := make([]bool, len(rep.Tuple))
		for j := range k {
			k[j] = !rng.Bernoulli(0.03)
		}
		tuples = append(tuples, rep.Tuple)
		known = append(known, k)
	}
	if len(tuples) == 0 {
		return
	}
	measure := r.sys.Config().Similarity
	arm := func(db *signature.DB, masked bool) float64 {
		return medianUS(maxProbe, func(i int) {
			q := i % len(tuples)
			var k []bool
			if masked {
				k = known[q]
			}
			if _, err := db.MatchMasked(tuples[q], k, c.ctx.IP, c.ctx.Workload, measure, 0); err != nil {
				r.errf("match: %v", err)
			}
		})
	}
	r.out["signature.match_scan_us"] = arm(db, false)
	r.out["signature.match_masked_us"] = arm(db, true)
	r.out["signature.match_indexed_us"] = arm(indexed, false)
}

// storeProbe saves the system once into dir and restores it, reporting the
// time of each and what landed on disk. The persist workload overrides the
// two timings with the medians of its timed loop.
func (r *replay) storeProbe(dir string) {
	dir = filepath.Join(dir, "probe")
	t0 := time.Now()
	if err := r.sys.SaveTo(dir); err != nil {
		r.errf("save: %v", err)
		return
	}
	r.out["xmlstore.save_ms"] = ms(time.Since(t0))
	files, size, err := dirSize(dir)
	if err != nil {
		r.errf("store size: %v", err)
		return
	}
	r.out["xmlstore.files_written"] = float64(files)
	r.out["xmlstore.bytes_written"] = float64(size)
	restored := core.New(core.DefaultConfig())
	t0 = time.Now()
	rep, err := restored.LoadFrom(dir)
	if err != nil || rep.Partial() {
		r.errf("restore: %v %v", err, rep)
		return
	}
	r.out["xmlstore.restore_ms"] = ms(time.Since(t0))
	if got, want := restored.SignatureCount(), r.sys.SignatureCount(); got != want {
		r.errf("restore: %d signatures, saved %d", got, want)
	}
}

// dirSize counts the regular files directly in dir and their total size.
func dirSize(dir string) (files int, size int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		if info.Mode().IsRegular() {
			files++
			size += info.Size()
		}
	}
	return files, size, nil
}
