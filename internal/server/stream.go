package server

import (
	"math"
	"sync"
	"sync/atomic"

	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/metrics"
)

// ingestBatch is the admission-side columnar form of one accepted batch:
// per-metric value columns with the gap semantics already applied (see
// maskValue), parallel validity flags, and the CPI column. Both ingest paths
// converge here — decodeIngestJSON and decodeFrame each fill one straight
// from the request body — so the sliding windows see bit-identical state
// regardless of encoding.
//
// Batches are pooled (batchPool) and reused across requests: in the steady
// state neither decode path allocates per sample.
type ingestBatch struct {
	n     int
	cols  []float64 // metrics.Count * n, column-major: cols[m*n+i]
	valid []bool    // metrics.Count * n, same layout
	cpi   []float64 // n
	cpiOK []bool    // n

	// rows and rowOK are the JSON decoder's row-major scratch: rowStride
	// entries per sample, transposed into the columns by fromRows.
	rows  []float64
	rowOK []bool
}

// rowStride is one sample's slot count in rows and rowOK: the metric vector,
// then the CPI.
const rowStride = metrics.Count + 1

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
	}
	b.cpi = b.cpi[:n]
	b.cpiOK = b.cpiOK[:n]
}

// fromSamples converts validated wire samples into columnar form, applying
// maskValue once at the boundary.
func (b *ingestBatch) fromSamples(samples []Sample) {
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
}

// fromRows transposes the JSON decoder's n scratch rows into the columns,
// applying maskValue once at the boundary, as fromSamples does.
func (b *ingestBatch) fromRows(n int) {
	b.ensure(n)
	for i := 0; i < n; i++ {
		row, ok := b.rows[i*rowStride:(i+1)*rowStride], b.rowOK[i*rowStride:(i+1)*rowStride]
		for m := 0; m < metrics.Count; m++ {
			b.cols[m*n+i] = maskValue(row[m], ok[m])
			b.valid[m*n+i] = ok[m]
		}
		b.cpi[i] = maskValue(row[metrics.Count], ok[metrics.Count])
		b.cpiOK[i] = ok[metrics.Count]
	}
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
}

func (w *colWindow) init(capacity int) {
	w.cap = capacity
	w.cols = make([]float64, metrics.Count*capacity)
	w.valid = make([]bool, metrics.Count*capacity)
	w.cpi = make([]float64, capacity)
	w.cpiOK = make([]bool, capacity)
}

// slide appends one batch, evicting the oldest ticks beyond capacity. A
// batch at least as long as the window replaces it with the batch's tail.
func (w *colWindow) slide(b *ingestBatch) {
	if b.n >= w.cap {
		off := b.n - w.cap
		for m := 0; m < metrics.Count; m++ {
			copy(w.cols[m*w.cap:(m+1)*w.cap], b.cols[m*b.n+off:(m+1)*b.n])
			copy(w.valid[m*w.cap:(m+1)*w.cap], b.valid[m*b.n+off:(m+1)*b.n])
		}
		copy(w.cpi, b.cpi[off:])
		copy(w.cpiOK, b.cpiOK[off:])
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
		w.n -= over
	}
	for m := 0; m < metrics.Count; m++ {
		copy(w.cols[m*w.cap+w.n:m*w.cap+w.n+b.n], b.cols[m*b.n:(m+1)*b.n])
		copy(w.valid[m*w.cap+w.n:m*w.cap+w.n+b.n], b.valid[m*b.n:(m+1)*b.n])
	}
	copy(w.cpi[w.n:w.n+b.n], b.cpi)
	copy(w.cpiOK[w.n:w.n+b.n], b.cpiOK)
	w.n += b.n
}

// traceFromColumns copies n ticks of column-major state — metric m's tick i
// at cols[m*stride+i], as both ingestBatch (stride n) and colWindow (stride
// cap) lay it out — into a metrics.Trace. It is the one columns→trace
// builder: a validity mask is materialised only when some entry (metric or
// CPI) is actually invalid, so an explicit window whose samples carry
// all-true masks and the identical stream window are the same trace and
// share one report-cache entry.
func traceFromColumns(ctx core.Context, n, stride int, cols []float64, valid []bool, cpi []float64, cpiOK []bool) *metrics.Trace {
	tr := metrics.NewTrace(ctx.IP, ctx.Workload)
	masked := false
	for m := 0; m < metrics.Count; m++ {
		tr.Rows[m] = append([]float64(nil), cols[m*stride:m*stride+n]...)
		masked = masked || !allTrue(valid[m*stride:m*stride+n])
	}
	tr.CPI = append([]float64(nil), cpi[:n]...)
	if masked || !allTrue(cpiOK[:n]) {
		tr.Valid = make([][]bool, metrics.Count)
		for m := range tr.Valid {
			tr.Valid[m] = append([]bool(nil), valid[m*stride:m*stride+n]...)
		}
		tr.CPIValid = append([]bool(nil), cpiOK[:n]...)
	}
	tr.Ticks = n
	return tr
}

func allTrue(flags []bool) bool {
	for _, ok := range flags {
		if !ok {
			return false
		}
	}
	return true
}

// stream is the serving-side state of one operation context: the columnar
// sliding window of recently ingested samples, the live drift monitor, and
// the bounded task queue every asynchronous operation for the context rides.
// Only a trained context has a stream (Server.stream), so the monitor is
// built with it.
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
	st.win.slide(b)
	st.mu.Unlock()
	st.ingested.Add(int64(b.n))
	srv.ctr.detectTasks.Add(1)

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

// windowTrace snapshots the current sliding window as a metrics.Trace —
// exactly the trace TraceFromSamples builds from the same samples.
func (st *stream) windowTrace() *metrics.Trace {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := &st.win
	return traceFromColumns(st.ctx, w.n, w.cap, w.cols, w.valid, w.cpi, w.cpiOK)
}

// windowLen returns the current window length.
func (st *stream) windowLen() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.win.n
}
