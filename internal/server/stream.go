package server

import (
	"math"
	"sync"
	"sync/atomic"

	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
)

// ingestBatch is the admission-side columnar form of one accepted batch:
// per-metric value columns with the gap semantics already applied (see
// maskValue), parallel validity flags, and the CPI column. Both ingest paths
// converge here — the JSON handler converts decoded samples, the binary
// handler decodes frames straight into one — so the sliding windows and
// sliders see bit-identical state regardless of encoding.
//
// Batches are pooled (batchPool) and reused across requests: in the steady
// state neither decode path allocates per sample.
type ingestBatch struct {
	n     int
	cols  []float64 // metrics.Count * n, column-major: cols[m*n+i]
	valid []bool    // metrics.Count * n, same layout
	cpi   []float64 // n
	cpiOK []bool    // n
	// stages holds the per-tick execution-stage label expanded from the
	// batch's stage markers; "" means unmarked (before the batch's first
	// mark), which inherits the stream's current stage at slide time.
	stages []string // n
}

// ensure sizes the batch for n samples, growing the backing arrays only when
// a larger batch than ever seen arrives.
func (b *ingestBatch) ensure(n int) {
	b.n = n
	if cap(b.cols) < metrics.Count*n {
		b.cols = make([]float64, metrics.Count*n)
		b.valid = make([]bool, metrics.Count*n)
	}
	b.cols = b.cols[:metrics.Count*n]
	b.valid = b.valid[:metrics.Count*n]
	if cap(b.cpi) < n {
		b.cpi = make([]float64, n)
		b.cpiOK = make([]bool, n)
		b.stages = make([]string, n)
	}
	b.cpi = b.cpi[:n]
	b.cpiOK = b.cpiOK[:n]
	b.stages = b.stages[:n]
}

// setStages expands validated stage marks into the per-tick label column:
// each mark's label covers its index onward until the next mark; ticks before
// the first mark stay "" (unmarked). Pooled batches carry stale labels, so
// the whole column is rewritten even for mark-free batches.
func (b *ingestBatch) setStages(marks []StageMark) {
	cur, next := "", 0
	for i := 0; i < b.n; i++ {
		for next < len(marks) && marks[next].Index == i {
			cur = marks[next].Stage
			next++
		}
		b.stages[i] = cur
	}
}

// fromSamples converts validated wire samples and stage marks into columnar
// form, applying maskValue once at the boundary.
func (b *ingestBatch) fromSamples(samples []Sample, marks []StageMark) {
	n := len(samples)
	b.ensure(n)
	for i, s := range samples {
		for m := 0; m < metrics.Count; m++ {
			ok := s.Valid == nil || s.Valid[m]
			b.cols[m*n+i] = maskValue(s.Metrics[m], ok)
			b.valid[m*n+i] = ok
		}
		ok := s.CPIValid == nil || *s.CPIValid
		b.cpi[i] = maskValue(s.CPI, ok)
		b.cpiOK[i] = ok
	}
	b.setStages(marks)
}

// batchPool recycles ingestBatch column buffers across requests and
// connections.
var batchPool = sync.Pool{New: func() any { return new(ingestBatch) }}

func getBatch() *ingestBatch  { return batchPool.Get().(*ingestBatch) }
func putBatch(b *ingestBatch) { batchPool.Put(b) }

// colWindow is the columnar sliding window of one stream: per-metric value
// columns (maskValue applied), a CPI column and parallel validity flags, all
// in flat arrays allocated once at window capacity and reused for the
// stream's lifetime — sliding never allocates. Column-major: metric m's tick
// i lives at cols[m*cap+i]; ticks are newest-last.
type colWindow struct {
	cap, n int
	cols   []float64
	valid  []bool
	cpi    []float64
	cpiOK  []bool
	// stages is the per-tick execution-stage label, sliding with the data.
	// Unmarked ticks inherit the newest windowed label at slide time, so a
	// stage spanning many batches stays attached to every sample it covers.
	stages []string
}

func (w *colWindow) init(capacity int) {
	w.cap = capacity
	w.cols = make([]float64, metrics.Count*capacity)
	w.valid = make([]bool, metrics.Count*capacity)
	w.cpi = make([]float64, capacity)
	w.cpiOK = make([]bool, capacity)
	w.stages = make([]string, capacity)
}

// slide appends one batch, evicting the oldest ticks beyond capacity. A
// batch at least as long as the window replaces it with the batch's tail.
func (w *colWindow) slide(b *ingestBatch) {
	// Resolve the batch's unmarked prefix against the stream's current
	// stage before any eviction: stage labels carry forward across batch
	// boundaries exactly as a trace mark persists until the next mark.
	cur := ""
	if w.n > 0 {
		cur = w.stages[w.n-1]
	}
	for i := 0; i < b.n && b.stages[i] == ""; i++ {
		b.stages[i] = cur
	}
	if b.n >= w.cap {
		off := b.n - w.cap
		for m := 0; m < metrics.Count; m++ {
			copy(w.cols[m*w.cap:(m+1)*w.cap], b.cols[m*b.n+off:(m+1)*b.n])
			copy(w.valid[m*w.cap:(m+1)*w.cap], b.valid[m*b.n+off:(m+1)*b.n])
		}
		copy(w.cpi, b.cpi[off:])
		copy(w.cpiOK, b.cpiOK[off:])
		copy(w.stages, b.stages[off:])
		w.n = w.cap
		return
	}
	if over := w.n + b.n - w.cap; over > 0 {
		for m := 0; m < metrics.Count; m++ {
			col := w.cols[m*w.cap : m*w.cap+w.n]
			ok := w.valid[m*w.cap : m*w.cap+w.n]
			copy(col, col[over:])
			copy(ok, ok[over:])
		}
		copy(w.cpi[:w.n], w.cpi[over:w.n])
		copy(w.cpiOK[:w.n], w.cpiOK[over:w.n])
		copy(w.stages[:w.n], w.stages[over:w.n])
		w.n -= over
	}
	for m := 0; m < metrics.Count; m++ {
		copy(w.cols[m*w.cap+w.n:m*w.cap+w.n+b.n], b.cols[m*b.n:(m+1)*b.n])
		copy(w.valid[m*w.cap+w.n:m*w.cap+w.n+b.n], b.valid[m*b.n:(m+1)*b.n])
	}
	copy(w.cpi[w.n:w.n+b.n], b.cpi)
	copy(w.cpiOK[w.n:w.n+b.n], b.cpiOK)
	copy(w.stages[w.n:w.n+b.n], b.stages)
	w.n += b.n
}

// masked reports whether any windowed entry (metric or CPI) is flagged
// invalid.
func (w *colWindow) masked() bool {
	for m := 0; m < metrics.Count; m++ {
		for _, ok := range w.valid[m*w.cap : m*w.cap+w.n] {
			if !ok {
				return true
			}
		}
	}
	for _, ok := range w.cpiOK[:w.n] {
		if !ok {
			return true
		}
	}
	return false
}

// stream is the serving-side state of one operation context: the columnar
// sliding window of recently ingested samples, the live drift monitor, and
// the bounded task queue every asynchronous operation for the context rides.
//
// Window and monitor mutate only inside tasks on the stream's queue, which
// the scheduler serialises — one task of a queue runs at a time, in order —
// so ingestion batches apply atomically and in arrival order. The mutex
// exists for the cross-thread readers (profiles listing, window snapshots).
type stream struct {
	ctx   core.Context
	queue *queue

	mu  sync.Mutex
	win colWindow // sliding window, newest last, n <= Config.WindowCap
	// sliders hold per-metric incremental sort state mirroring the window
	// (delta-aware re-sort on every slide), so a diagnosis can snapshot
	// ready-made MIC preparations instead of re-sorting the whole window.
	// Nil when the configured association has no batched-MIC form.
	sliders []*mic.Slider
	// slidersDirty marks sliders that lag the window: a batch that replaces
	// the window outright makes the incremental state worthless, so apply
	// skips the per-batch maintenance and the next consumer (windowScorer, or
	// a smaller batch) rebuilds from the window in one pass. Bulk ingest
	// (batch >= window) therefore pays no sort work at all between
	// diagnoses.
	slidersDirty bool

	monitor  *detect.Monitor
	ingested atomic.Int64
	alerts   atomic.Int64
	alerting atomic.Bool
}

// apply is the ingest task body: slide the batch into the window, then feed
// the CPI readings to the drift monitor. Runs serialised on the stream's
// queue. The caller owns b and releases it after apply returns.
func (st *stream) apply(srv *Server, b *ingestBatch) {
	st.mu.Lock()
	if st.win.cols == nil {
		st.win.init(srv.cfg.WindowCap)
	}
	if srv.useSliders && st.sliders == nil {
		st.sliders = make([]*mic.Slider, metrics.Count)
		for i := range st.sliders {
			st.sliders[i] = mic.NewSlider(srv.cfg.WindowCap, mic.DefaultConfig())
		}
	}
	if st.sliders != nil {
		// The batch columns already carry the maskValue gap semantics (zero
		// placeholders of invalid entries are NaN), so a scorer built from
		// the slider snapshots sees the same window the trace carries.
		if b.n >= srv.cfg.WindowCap {
			st.slidersDirty = true
		} else {
			if st.slidersDirty {
				st.rebuildSliders() // catch up from the pre-batch window
			}
			for m := 0; m < metrics.Count; m++ {
				st.sliders[m].AppendBatch(b.cols[m*b.n:(m+1)*b.n], b.valid[m*b.n:(m+1)*b.n])
			}
		}
	}
	st.win.slide(b)
	winN := st.win.n
	st.mu.Unlock()
	st.ingested.Add(int64(b.n))
	srv.ctr.detectTasks.Add(1)

	// Drift detection wants a trained model; a stream may start flowing
	// before its context is trained, so the lookup is retried per batch
	// until it succeeds (lookups are two atomic-ish map reads — cheap).
	// Reading st.win without the mutex is safe here: apply is the only
	// mutator and tasks of a queue are serialised.
	if st.monitor == nil {
		d, err := srv.sys.Detector(st.ctx)
		if err != nil {
			return // no model yet: window still slides, detection waits
		}
		// Seed with everything already windowed before this batch (a batch
		// larger than the window may have evicted its own head); the batch
		// itself is offered sample by sample below.
		head := winN - b.n
		if head < 0 {
			head = 0
		}
		warmup := make([]float64, 0, head)
		for i := 0; i < head; i++ {
			warmup = append(warmup, cpiObserved(st.win.cpi[i], st.win.cpiOK[i]))
		}
		st.monitor = d.NewMonitor(warmup)
		// Server streams run indefinitely: drop the per-sample anomaly log
		// so the monitor's memory stays constant (the forecaster state
		// already is).
		st.monitor.DisableLog = true
	}
	for i := 0; i < b.n; i++ {
		st.monitor.Offer(cpiObserved(b.cpi[i], b.cpiOK[i]))
		if st.monitor.Alert() {
			st.alerts.Add(1)
			srv.ctr.alerts.Add(1)
			st.alerting.Store(true)
			st.monitor.Reset() // keep watching; the flag stays up for operators
		}
	}
}

// rebuildSliders reloads every slider from the current window columns and
// clears the dirty mark. Caller holds st.mu (or runs serialised on the
// stream's queue with the mutex taken, as apply and windowScorer do).
func (st *stream) rebuildSliders() {
	w := &st.win
	for m, sl := range st.sliders {
		sl.Reset()
		sl.AppendBatch(w.cols[m*w.cap:m*w.cap+w.n], w.valid[m*w.cap:m*w.cap+w.n])
	}
	st.slidersDirty = false
}

// cpiObserved maps a windowed CPI entry to the value the monitor should see:
// a masked-invalid reading is a telemetry gap (NaN, whatever the
// placeholder), which the monitor excludes from its forecast history rather
// than treating as data.
func cpiObserved(v float64, valid bool) float64 {
	if !valid {
		return math.NaN()
	}
	return v
}

// windowTrace snapshots the current sliding window as a metrics.Trace. A
// window without any masked entry materialises as an unmasked trace —
// exactly what TraceFromSamples builds from mask-free wire samples.
func (st *stream) windowTrace() (*metrics.Trace, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := &st.win
	tr := metrics.NewTrace(st.ctx.IP, st.ctx.Workload)
	masked := w.masked()
	row := make([]float64, metrics.Count)
	var valid []bool
	if masked {
		valid = make([]bool, metrics.Count)
	}
	for i := 0; i < w.n; i++ {
		// Re-emit stage boundaries as trace marks before the covering
		// sample; MarkStage dedupes consecutive identical labels, so a
		// stage spanning many ticks yields one mark.
		if w.stages[i] != "" {
			tr.MarkStage(w.stages[i])
		}
		for m := 0; m < metrics.Count; m++ {
			row[m] = w.cols[m*w.cap+i]
		}
		var err error
		if masked {
			for m := 0; m < metrics.Count; m++ {
				valid[m] = w.valid[m*w.cap+i]
			}
			err = tr.AddMasked(row, valid, w.cpi[i], w.cpiOK[i])
		} else {
			err = tr.Add(row, w.cpi[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// windowLen returns the current window length.
func (st *stream) windowLen() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.win.n
}

// windowScorer returns the lazy pair scorer for diagnosing the stream's
// current window — mic.Batch snapshots of the incrementally maintained
// per-metric preparations — or nil when sliders are off. Diagnosis tasks are
// serialised with apply on the stream's queue, so the sliders cannot advance
// while the scorer is alive.
func (st *stream) windowScorer() func() invariant.PairScorer {
	st.mu.Lock()
	if st.sliders != nil && st.slidersDirty {
		st.rebuildSliders() // deferred by bulk ingest
	}
	sliders := st.sliders
	st.mu.Unlock()
	if sliders == nil {
		return nil
	}
	return func() invariant.PairScorer {
		preps := make([]*mic.Prepared, len(sliders))
		for i, sl := range sliders {
			// Degenerate metrics (masked ticks, too few samples) stay
			// nil and score 0, exactly as a fresh NewBatch would treat
			// them; pairs they could mislead never consult the scorer
			// (partial overlap routes through the per-pair assoc).
			if p, err := sl.Prepared(); err == nil {
				preps[i] = p
			}
		}
		b, err := mic.NewBatchPrepared(preps)
		if err != nil {
			return nil // fall back to the configured batch path
		}
		return b
	}
}
