package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
)

// Defaults and clamps for the serving configuration.
const (
	// DefaultQueueCap bounds each profile's task queue. At the default the
	// worst-case buffered work per context is 64 batches — overload beyond
	// that sheds with 429 instead of growing memory.
	DefaultQueueCap = 64
	// DefaultWindowCap is the sliding-window length per stream, in ticks
	// (at the paper's 10 s sampling: 20 minutes of telemetry).
	DefaultWindowCap = 120
	// minWindowCap / maxWindowCap clamp operator-supplied window sizes: a
	// window shorter than ~16 ticks cannot carry association structure, and
	// one beyond 4096 ticks multiplies across tenants into real memory.
	minWindowCap = 16
	maxWindowCap = 4096
	// DefaultReportCap bounds the retained diagnosis reports.
	DefaultReportCap = 4096
	// maxBodyBytes bounds one request body (a 4096-tick batch of 26-metric
	// samples is ~2 MB of JSON; 8 MB leaves headroom without letting one
	// request balloon the heap).
	maxBodyBytes = 8 << 20
	// retryAfter is the backpressure hint attached to every 429.
	retryAfter = "1"
)

// Config assembles an invarnetd server.
type Config struct {
	// Core configures the diagnosis system. Validated on New — a server
	// must not boot a profile registry from a garbage config.
	Core core.Config
	// StoreDir, when set, is loaded on New (partial, crash-tolerant) and
	// every profile is persisted into it on Shutdown.
	StoreDir string
	// Workers bounds how many detection/diagnosis tasks run at once
	// (default GOMAXPROCS, min 1).
	Workers int
	// QueueCap bounds each profile's task queue (default DefaultQueueCap).
	QueueCap int
	// WindowCap is the per-stream sliding window length in ticks (default
	// DefaultWindowCap, clamped to [16, 4096]).
	WindowCap int
	// ReportCap bounds retained reports (default DefaultReportCap).
	ReportCap int
}

// withDefaults normalises and clamps the serving knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.WindowCap <= 0 {
		c.WindowCap = DefaultWindowCap
	}
	if c.WindowCap < minWindowCap {
		c.WindowCap = minWindowCap
	}
	if c.WindowCap > maxWindowCap {
		c.WindowCap = maxWindowCap
	}
	if c.ReportCap <= 0 {
		c.ReportCap = DefaultReportCap
	}
	return c
}

// Server is one invarnetd instance: the core System, the per-context
// streams, the scheduler, the report store and the HTTP surface.
type Server struct {
	cfg   Config
	sys   *core.System
	sched *scheduler
	store *reportStore
	ctr   counters
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool
	shutOnce sync.Once
	shutErr  error

	mu      sync.RWMutex
	streams map[core.Context]*stream
}

// New builds a server. The core config is validated first — an invalid one
// is an error here, not a panic deeper in — and StoreDir, when set, is
// restored immediately so the instance boots with every persisted model,
// invariant set and signature shard. The returned LoadReport (nil without a
// StoreDir) tells the operator what came back and what was skipped. A
// StoreDir that does not exist yet is a cold boot; one that exists but cannot
// be read is an error — Shutdown would otherwise save an empty system over it.
func New(cfg Config) (*Server, *core.LoadReport, error) {
	if err := cfg.Core.Validate(); err != nil {
		return nil, nil, fmt.Errorf("server: refusing to boot: %w", err)
	}
	cfg = cfg.withDefaults()
	sys := core.New(cfg.Core)
	var rep *core.LoadReport
	if cfg.StoreDir != "" {
		var err error
		rep, err = sys.LoadFrom(cfg.StoreDir)
		// A missing directory is a cold boot, not a failure: SaveTo will
		// create it on shutdown. Anything else (unreadable, not a
		// directory) must not boot empty and then save over the store.
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("server: refusing to boot: restoring store: %w", err)
		}
	}
	s := &Server{
		cfg:     cfg,
		sys:     sys,
		sched:   newScheduler(cfg.Workers),
		store:   newReportStore(cfg.ReportCap),
		streams: make(map[core.Context]*stream),
		start:   time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("GET /v1/reports/{id}", s.handleReport)
	s.mux.HandleFunc("GET /v1/profiles", s.handleProfiles)
	s.mux.HandleFunc("GET /v1/signatures", s.handleSignaturesGet)
	s.mux.HandleFunc("POST /v1/signatures", s.handleSignaturesPost)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, rep, nil
}

// System exposes the underlying diagnosis system — in-process training for
// tests, smoke mode and benchmarks; the HTTP surface stays the only remote
// mutation path.
func (s *Server) System() *core.System { return s.sys }

// Config returns the effective (defaulted, clamped) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// stream returns the serving state of ctx, creating it on first use with
// its drift monitor. Only a context with a trained performance model gets
// one: any other is core.ErrNoModel and leaves nothing behind, so the stream
// table is bounded by the trained registry, not by what clients name.
func (s *Server) stream(ctx core.Context) (*stream, error) {
	s.mu.RLock()
	st, ok := s.streams[ctx]
	s.mu.RUnlock()
	if ok {
		return st, nil
	}
	d, err := s.sys.Detector(ctx)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok = s.streams[ctx]; ok {
		return st, nil
	}
	st = &stream{ctx: ctx, queue: newQueue(s.cfg.QueueCap), monitor: d.NewMonitor(nil)}
	s.streams[ctx] = st
	return st, nil
}

// Shutdown drains and persists, in strict order: (1) stop admitting — every
// mutating endpoint starts refusing with 503; (2) wait for every accepted
// task to finish, so no accepted sample or pending report is lost; (3)
// persist every profile (concurrent SaveTo, atomic files). The HTTP listener
// itself is the caller's to close first (http.Server.Shutdown), so no
// request races the drain. ctx bounds the drain wait: a task wedged inside a
// stuck diagnosis or a hung callback is abandoned to process exit on expiry,
// and the persistence pass still runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		done := make(chan struct{})
		go func() {
			s.sched.drain()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutErr = fmt.Errorf("server: drain aborted: %w", ctx.Err())
		}
		if s.cfg.StoreDir != "" {
			if err := s.sys.SaveTo(s.cfg.StoreDir); err != nil && s.shutErr == nil {
				s.shutErr = fmt.Errorf("server: persisting profiles: %w", err)
			}
		}
	})
	return s.shutErr
}

// --- HTTP helpers ---------------------------------------------------------

// respPool recycles response buffers; one over maxPooledResp (a large
// signature listing) is left to the collector rather than pinned.
var respPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResp = 64 << 10

// writeJSON is every response's one path: v encoded compact (the bytes of
// json.Marshal plus Encoder's trailing newline) into a pooled buffer, then
// sent with its Content-Length in one Write. Indenting would be a second
// pass over the bytes, and a body over net/http's 2 KiB pre-header buffer
// written without a length goes out chunked — most verdicts are that big.
// Encoder builds the whole body in memory before it writes either way, so
// knowing the length costs one copy of the body into the buffer.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := respPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Of this package's wire types only a non-finite number fails to
		// encode, and that is the server's fault: say so rather than send
		// code with no body.
		buf.Reset()
		code = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(apiError{Error: "server: encoding response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client is gone
	if buf.Cap() <= maxPooledResp {
		respPool.Put(buf)
	}
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
		s.ctr.badRequests.Add(1)
	}
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// statusFor maps refusals to HTTP codes: an untrained context is the
// caller's problem (409 — the request is well-formed but the state it needs
// does not exist), a draining server is 503, everything else is a 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrNoModel) || errors.Is(err, core.ErrNoInvariants):
		return http.StatusConflict
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// bodyPool recycles request-body buffers.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// readRequest is the one body path of the queued requests. It refuses while
// draining (503), reads the whole body, at most maxBodyBytes (413 past it),
// into a pooled buffer grown only as bytes arrive, and decodes it into req
// and a pooled batch, refusing it with 400. The batch is nil when the body
// sent no samples; otherwise it is the caller's, to hand to admit.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, req any) (*ingestBatch, bool) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	bufp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bufp)
	buf := (*bufp)[:0]
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
			*bufp = buf // keep the grown buffer for the pool
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			} else {
				s.fail(w, http.StatusBadRequest, "reading request: %v", err)
			}
			return nil, false
		}
	}
	b := getBatch()
	if err := decodeRequest(r.Header.Get("Content-Type"), buf, req, b); err != nil {
		putBatch(b)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if b.n == 0 {
		putBatch(b)
		return nil, true
	}
	return b, true
}

// decodeRequest decodes one body into req and b: a length-prefixed binary
// frame when req is an ingest whose Content-Type names one, JSON otherwise.
// Both decoders fill the pooled batch without per-sample allocation.
func decodeRequest(contentType string, body []byte, req any, b *ingestBatch) error {
	ingest, ok := req.(*IngestRequest)
	if !ok || contentType != ContentTypeFrame && !strings.HasPrefix(contentType, ContentTypeFrame+";") {
		return decodeIngestJSON(body, req, b)
	}
	frame, err := splitFrame(body)
	if err != nil {
		return err
	}
	wb, nb, err := decodeFrame(frame, b)
	ingest.Workload, ingest.Node = string(wb), string(nb)
	return err
}

// admit is the one admission path of the queued requests (ingest, diagnose,
// label): it finds the stream of (workload, node) and enqueues the task
// build makes for it, so backpressure and the counters cannot drift apart
// between them. It answers a refusal itself — 409 for an untrained context
// (before build runs), 429 + Retry-After counted in shed for a full queue,
// 503 while draining — and reports whether the task was queued. b, nil when
// the body sent no samples, is the task's from then on, to return to the
// pool; a refusal returns it here.
func (s *Server) admit(w http.ResponseWriter, workload, node string, b *ingestBatch, shed *atomic.Int64, what string, build func(*stream) task) bool {
	st, err := s.stream(core.Context{Workload: workload, IP: node})
	if err == nil {
		if err = s.sched.enqueue(st.queue, build(st)); err == nil {
			return true
		}
	}
	if b != nil {
		putBatch(b)
	}
	if errors.Is(err, ErrQueueFull) {
		shed.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Error: fmt.Sprintf("server: %s queue full, retry after %ss", what, retryAfter),
		})
		return false
	}
	s.fail(w, statusFor(err), "%v", err)
	return false
}

// --- Handlers -------------------------------------------------------------

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	b, ok := s.readRequest(w, r, &req)
	if !ok {
		return
	}
	n := b.n // read before admit: the task may recycle b at once
	if !s.admit(w, req.Workload, req.Node, b, &s.ctr.ingestShed, "ingest", func(st *stream) task {
		return func() { st.apply(s, b); putBatch(b) }
	}) {
		return
	}
	s.ctr.ingestBatches.Add(1)
	s.ctr.ingestSamples.Add(int64(n))
	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: n, QueueDepth: s.sched.depth.Load()})
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req DiagnoseRequest
	b, ok := s.readRequest(w, r, &req)
	if !ok {
		return
	}
	var rep *report
	if !s.admit(w, req.Workload, req.Node, b, &s.ctr.diagnoseShed, "diagnose", func(st *stream) task {
		rep = s.store.create(req.Workload, req.Node)
		s.ctr.reportsPending.Add(1)
		return func() { s.runDiagnosis(st, rep, b) }
	}) {
		if rep != nil { // issued, then refused: withdraw the ID no client saw
			s.ctr.reportsPending.Add(-1)
			s.store.remove(rep.r.ID)
		}
		return
	}
	if req.Wait {
		select {
		case <-rep.done:
		case <-r.Context().Done():
			// The client went away; the work still completes and the
			// report stays retrievable by ID.
		}
	}
	snap := rep.snapshot()
	code := http.StatusAccepted
	if snap.Status != StatusPending {
		code = http.StatusOK
	}
	writeJSON(w, code, DiagnoseResponse{ID: snap.ID, Status: snap.Status, Report: &snap})
}

// runDiagnosis is the diagnose task body (runs on the profile queue).
func (s *Server) runDiagnosis(st *stream, rep *report, b *ingestBatch) {
	t0 := time.Now()
	finished := false
	finish := func(d *Diagnosis, errMsg string) {
		finished = true
		lat := time.Since(t0)
		s.ctr.diagnoseLatency.observe(lat)
		s.ctr.reportsPending.Add(-1)
		if errMsg != "" {
			s.ctr.reportsFailed.Add(1)
		} else {
			s.ctr.reportsDone.Add(1)
		}
		rep.complete(d, errMsg, float64(lat)/float64(time.Millisecond))
	}
	// A panic below completes the report as failed on its way to the
	// scheduler's containment: a waiting client must not hang.
	defer func() {
		if !finished {
			finish(nil, errTaskPanicked.Error())
		}
	}()
	tr, err := s.traceFor(st, b)
	if err != nil {
		finish(nil, err.Error())
		return
	}
	diag, err := s.sys.Diagnose(st.ctx, tr)
	if err != nil {
		finish(nil, err.Error())
		return
	}
	invariants := len(diag.Tuple)
	st.alerting.Store(false) // a completed diagnosis answers the alert
	finish(diagnosisWire(st.ctx, diag, invariants), "")
}

// traceFor materialises the diagnosis window: the request's own samples
// when it sent some (b, returned to the pool here), the stream's current
// sliding window otherwise.
func (s *Server) traceFor(st *stream, b *ingestBatch) (*metrics.Trace, error) {
	if b != nil {
		defer putBatch(b)
		return traceFromColumns(st.ctx, b.n, b.n, b.cols, b.valid, b.cpi, b.cpiOK), nil
	}
	if st.windowLen() == 0 {
		return nil, fmt.Errorf("server: no ingested window for %s@%s (ingest first or supply samples)", st.ctx.Workload, st.ctx.IP)
	}
	return st.windowTrace(), nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, ok := s.store.get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no report %q (unknown, or evicted after completion)", id)
		return
	}
	writeJSON(w, http.StatusOK, rep.snapshot())
}

// handleProfiles lists one row per profile, in the snapshot's (workload,
// node) order. The streams are read before the registry snapshot, so every
// stream's profile is in it: a stream exists only for a trained context,
// and profiles never leave the registry.
func (s *Server) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	streams := maps.Clone(s.streams)
	s.mu.RUnlock()
	snap := s.sys.ProfileStats()
	out := ProfilesResponse{Count: len(snap)}
	for _, ps := range snap {
		info := ProfileInfo{
			Workload:    ps.Context.Workload,
			Node:        ps.Context.IP,
			HasModel:    ps.HasModel,
			Invariants:  ps.Invariants,
			Signatures:  ps.Signatures,
			CacheHits:   ps.Cache.Hits,
			CacheMisses: ps.Cache.Misses,

			Generation:       ps.Lifecycle.Generation,
			QuarantinedEdges: ps.Lifecycle.Quarantined,
			ShadowAge:        ps.Lifecycle.ShadowAge,
			Promotions:       ps.Lifecycle.Promotions,
			Rollbacks:        ps.Lifecycle.Rollbacks,
		}
		if st, ok := streams[ps.Context]; ok {
			info.WindowLen = st.windowLen()
			info.Ingested = st.ingested.Load()
			info.Alerts = st.alerts.Load()
			info.Alerting = st.alerting.Load()
		}
		out.Profiles = append(out.Profiles, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSignaturesGet(w http.ResponseWriter, _ *http.Request) {
	var out SignaturesResponse
	for _, p := range s.sys.Profiles() {
		for _, e := range p.Signatures() {
			out.Signatures = append(out.Signatures, SignatureEntry{
				Problem:  e.Problem,
				Workload: e.Workload,
				Node:     e.IP,
				Tuple:    e.Tuple.String(),
			})
		}
	}
	out.Count = len(out.Signatures)
	sort.Slice(out.Signatures, func(a, b int) bool {
		x, y := out.Signatures[a], out.Signatures[b]
		if x.Workload != y.Workload {
			return x.Workload < y.Workload
		}
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Problem != y.Problem {
			return x.Problem < y.Problem
		}
		return x.Tuple < y.Tuple
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSignaturesPost(w http.ResponseWriter, r *http.Request) {
	var req SignatureRequest
	b, ok := s.readRequest(w, r, &req)
	if !ok {
		return
	}
	type sigResult struct {
		added bool
		err   error
	}
	done := make(chan sigResult, 1)
	if !s.admit(w, req.Workload, req.Node, b, &s.ctr.diagnoseShed, "signature", func(st *stream) task {
		return func() {
			// Sent from a deferred call, so a panicking build still answers
			// the handler (with errTaskPanicked, a 500).
			res := sigResult{err: errTaskPanicked}
			defer func() { done <- res }()
			tr, err := s.traceFor(st, b)
			if err != nil {
				res.err = err
				return
			}
			_, res.added, res.err = s.sys.BuildSignatureEntry(st.ctx, req.Problem, tr)
		}
	}) {
		return
	}
	// Labelling is rare and must confirm durability-in-memory, so the
	// handler waits for the queued task (still admission-controlled above).
	res := <-done
	if res.err != nil {
		s.fail(w, statusFor(res.err), "building signature: %v", res.err)
		return
	}
	// Idempotent storage: re-labelling a known (context, fingerprint) is
	// acknowledged without inflating the base.
	status, code := "stored", http.StatusCreated
	if res.added {
		s.ctr.signaturesPost.Add(1)
	} else {
		status, code = "duplicate", http.StatusOK
	}
	writeJSON(w, code, map[string]string{
		"status":   status,
		"problem":  req.Problem,
		"workload": req.Workload,
		"node":     req.Node,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// ratio is part/whole, 0 when nothing was counted yet.
func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// Stats snapshots the daemon: the serving layer's own counters plus every
// core figure, all of the latter reduced (core.ProfileStats.Add) from one
// System.ProfileStats() walk of the registry — the same snapshot
// GET /v1/profiles lists row by row, so the totals here are the sums of
// those rows by construction.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	nstreams := len(s.streams)
	s.mu.RUnlock()
	snap := s.sys.ProfileStats()
	var all core.ProfileStats
	for _, ps := range snap {
		all.Add(ps)
	}
	h := &s.ctr.diagnoseLatency
	return Stats{
		UptimeSec:     time.Since(s.start).Seconds(),
		Streams:       nstreams,
		Profiles:      len(snap),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.sched.depth.Load(),
		QueueCapacity: s.cfg.QueueCap,

		IngestBatches: s.ctr.ingestBatches.Load(),
		IngestSamples: s.ctr.ingestSamples.Load(),
		IngestShed:    s.ctr.ingestShed.Load(),
		DiagnoseShed:  s.ctr.diagnoseShed.Load(),
		BadRequests:   s.ctr.badRequests.Load(),

		DetectTasks: s.ctr.detectTasks.Load(),
		Alerts:      s.ctr.alerts.Load(),

		ReportsPending: s.ctr.reportsPending.Load(),
		ReportsDone:    s.ctr.reportsDone.Load(),
		ReportsFailed:  s.ctr.reportsFailed.Load(),
		SignaturesPost: s.ctr.signaturesPost.Load(),

		AssocCacheHits:    all.Cache.Hits,
		AssocCacheMisses:  all.Cache.Misses,
		AssocCacheEntries: all.Cache.Entries,
		AssocCacheHitRate: ratio(all.Cache.Hits, all.Cache.Hits+all.Cache.Misses),

		SparseExactPairs:   all.Sparse.Exact,
		SparseSkippedPairs: all.Sparse.Skipped,

		SigScanEntries:       all.SigScanned,
		SigScanEarlyExits:    all.SigEarlyExits,
		SigScanEarlyExitRate: ratio(all.SigEarlyExits, all.SigScanned),

		Signatures: all.Signatures,

		// Enabled is a configuration fact, so it reads the same on a daemon
		// that holds no profile yet.
		LifecycleEnabled:  s.cfg.Core.Lifecycle,
		ModelGeneration:   all.Lifecycle.Generation,
		LifecycleEdges:    all.Lifecycle.Edges,
		QuarantinedEdges:  all.Lifecycle.Quarantined,
		ShadowAge:         all.Lifecycle.ShadowAge,
		LifecycleObserved: all.Lifecycle.Observed,
		Promotions:        all.Lifecycle.Promotions,
		Rollbacks:         all.Lifecycle.Rollbacks,

		DiagnoseLatency: LatencySummary{
			Count:  h.total.Load(),
			MeanMS: h.meanMS(),
			P50MS:  h.quantile(0.50),
			P95MS:  h.quantile(0.95),
			P99MS:  h.quantile(0.99),
		},
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, Health{Status: status, UptimeSec: time.Since(s.start).Seconds()})
}
