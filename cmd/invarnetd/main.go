// Command invarnetd serves InvarNet-X diagnosis online: a JSON HTTP API with
// streaming ingestion, per-profile bounded queues with 429 backpressure, and
// asynchronous diagnosis reports. Models are trained offline with invarctl
// and loaded from -models; shutdown persists every profile back.
//
// Typical session:
//
//	invarctl train -workload wordcount -models ./models
//	invarctl signatures -workload wordcount -models ./models
//	invarnetd -addr :8080 -models ./models
//
// The -smoke flag runs a self-test through the same serving loop: train a
// few synthetic contexts in-process, serve them on an ephemeral port, run
// the load generator against the live socket, assert /healthz and /v1/stats
// sanity, then shut the loop down and check the drain and the persisted
// store. Exit status is the verdict; `make smoke` wires it into the check
// pipeline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only by -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/stats"
)

func main() {
	fs := flag.NewFlagSet("invarnetd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	models := fs.String("models", "./models", "model directory (XML files); loaded on boot, persisted on shutdown")
	window := fs.Int("window", server.DefaultWindowCap, "sliding window length per stream (ticks)")
	queueCap := fs.Int("queue", server.DefaultQueueCap, "per-profile task queue bound")
	workers := fs.Int("workers", 0, "detection/diagnosis tasks run at once (0 = GOMAXPROCS)")
	reports := fs.Int("reports", server.DefaultReportCap, "retained diagnosis reports")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "bound on reading one request's headers (slow-loris guard)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "bound on reading one whole request")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive idle bound")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on graceful shutdown: the queue drain ends and persistence starts within this budget even if a task is wedged")
	lifecycle := fs.Bool("lifecycle", false, "enable the drift-aware invariant lifecycle (edge health, quarantine, shadow-generation promotion)")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on this address (e.g. 127.0.0.1:6060); empty = off")
	smoke := fs.Bool("smoke", false, "run the self-test against a live socket and exit")
	smokeSecs := fs.Float64("smoke-seconds", 3, "load duration in -smoke mode")
	fs.Parse(os.Args[1:])

	cfg := server.Config{
		Core:      core.DefaultConfig(),
		StoreDir:  *models,
		Workers:   *workers,
		QueueCap:  *queueCap,
		WindowCap: *window,
		ReportCap: *reports,
	}
	cfg.Core.Lifecycle = *lifecycle

	opts := serveOptions{
		drainBudget:       *drainTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		readTimeout:       *readTimeout,
		idleTimeout:       *idleTimeout,
	}
	if *smoke {
		if err := runSmoke(cfg, opts, *smokeSecs); err != nil {
			log.Fatalf("smoke: FAIL: %v", err)
		}
		fmt.Println("smoke: OK")
		return
	}

	if *pprofAddr != "" {
		// Profiling stays off the API handler: a second listener, bound by
		// the operator (typically loopback-only), serving the default mux
		// that the pprof import registered into. Header timeouts apply here
		// too — a debug port is no excuse for an unbounded connection.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			pp := &http.Server{Addr: *pprofAddr, ReadHeaderTimeout: *readHeaderTimeout}
			if err := pp.ListenAndServe(); err != nil {
				log.Printf("warning: pprof listener: %v", err)
			}
		}()
	}

	srv, loadRep, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if loadRep != nil {
		log.Printf("restored from %s: %s", cfg.StoreDir, loadRep)
	}
	// The signal handler is in place before the socket opens, so a signal
	// that arrives once clients can connect always drains and persists.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := serve(ctx, srv, ln, opts); err != nil {
		log.Fatal(err)
	}
}

// serveOptions carries the listener-level knobs: the drain budget and the
// connection timeouts that keep a slow or dead peer from pinning server
// state (slow-loris hardening).
type serveOptions struct {
	drainBudget       time.Duration
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
}

// serve serves srv on ln until ctx is done, then stops the listener, drains
// the accepted work and persists (server.Shutdown) within opts.drainBudget.
// A connection the budget cut is reported after the store is persisted.
func serve(ctx context.Context, srv *server.Server, ln net.Listener, opts serveOptions) error {
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: opts.readHeaderTimeout,
		ReadTimeout:       opts.readTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	eff := srv.Config()
	log.Printf("invarnetd listening on %s (workers=%d queue=%d window=%d)",
		ln.Addr(), eff.Workers, eff.QueueCap, eff.WindowCap)
	select {
	case <-ctx.Done():
		log.Print("shutdown requested, draining")
	case err := <-errc:
		return err
	}

	// Shutdown ordering: stop the listener first (no new requests), then
	// drain the accepted work and persist (server.Shutdown).
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.drainBudget)
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	log.Printf("drained and persisted to %s", eff.StoreDir)
	if httpErr != nil {
		return fmt.Errorf("http shutdown: %w", httpErr)
	}
	return nil
}

// runSmoke is the -smoke self-test: it trains a few contexts, serves them
// through serve on an ephemeral port, drives the load, cancels serve and
// checks the drain and the persisted store.
func runSmoke(cfg server.Config, opts serveOptions, seconds float64) error {
	dir, err := os.MkdirTemp("", "invarnetd-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.StoreDir = dir

	srv, _, err := server.New(cfg)
	if err != nil {
		return err
	}

	// Train the contexts the load generator will hit, in-process: the same
	// coupled synthetic telemetry the generator streams, so invariants and
	// CPI baselines exist before traffic arrives.
	lcfg := client.LoadConfig{Streams: 8, BatchLen: 10, DiagnoseEvery: 5}
	if err := trainLoadContexts(srv.System(), lcfg); err != nil {
		return fmt.Errorf("training synthetic contexts: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveCtx, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() { served <- serve(serveCtx, srv, ln, opts) }()
	base := "http://" + ln.Addr().String()

	// Half the load budget each for the JSON surface and the binary frame
	// path, so `make smoke` exercises both data planes against the socket.
	log.Printf("smoke: serving on %s for %.1fs (json + binary)", base, seconds)
	c := client.New(base, nil)
	half := time.Duration(seconds * float64(time.Second) / 2)
	ctx, cancel := context.WithTimeout(context.Background(), half)
	rep := c.RunLoad(ctx, lcfg)
	cancel()
	bcfg := lcfg
	bcfg.Binary = true
	ctx, cancel = context.WithTimeout(context.Background(), half)
	brep := c.RunLoad(ctx, bcfg)
	cancel()
	if brep.Accepted == 0 {
		return errors.New("binary load: no batches accepted")
	}
	rep.Sent += brep.Sent
	rep.Accepted += brep.Accepted
	rep.Shed += brep.Shed
	rep.Errors += brep.Errors
	rep.Samples += brep.Samples
	rep.Diagnoses += brep.Diagnoses
	rep.DiagnoseShed += brep.DiagnoseShed
	log.Printf("smoke: load done: sent=%d accepted=%d shed=%d errors=%d samples=%d diagnoses=%d diagnose-shed=%d (binary: accepted=%d)",
		rep.Sent, rep.Accepted, rep.Shed, rep.Errors, rep.Samples, rep.Diagnoses, rep.DiagnoseShed, brep.Accepted)

	// Sanity: the socket is live, traffic flowed, and the counters add up.
	bg := context.Background()
	h, err := c.Healthz(bg)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "ok" {
		return fmt.Errorf("healthz status %q, want ok", h.Status)
	}
	st, err := c.Stats(bg)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	switch {
	case rep.Errors > 0:
		return fmt.Errorf("%d transport errors during load", rep.Errors)
	case rep.Accepted == 0:
		return errors.New("no batches accepted")
	// The server may count a few more than the client confirmed: requests
	// accepted server-side whose responses the load deadline abandoned.
	case st.IngestBatches < rep.Accepted:
		return fmt.Errorf("server counted %d accepted batches, client confirmed %d", st.IngestBatches, rep.Accepted)
	case st.IngestShed < rep.Shed || st.DiagnoseShed < rep.DiagnoseShed:
		return fmt.Errorf("server counted %d ingest + %d diagnose shed, client %d + %d",
			st.IngestShed, st.DiagnoseShed, rep.Shed, rep.DiagnoseShed)
	case st.QueueDepth < 0 || st.QueueDepth > int64(cfg.QueueCap)*int64(lcfg.Streams):
		return fmt.Errorf("queue depth %d outside [0, %d]", st.QueueDepth, cfg.QueueCap*lcfg.Streams)
	}
	// The load generator diagnoses stream windows only: one explicit window,
	// waited for, takes the samples path of the request decoder.
	w0, node0 := lcfg.StreamID(0)
	window := client.SynthBatch(stats.NewRNG(2), client.LoadConfig{Coupled: 2}, 40)
	if dr, err := c.Diagnose(bg, w0, node0, window, true); err != nil {
		return fmt.Errorf("diagnose with samples: %w", err)
	} else if dr.Status != server.StatusDone || dr.Report == nil || dr.Report.Diagnosis == nil {
		return fmt.Errorf("diagnose with samples: status %q, want a %q report with a diagnosis", dr.Status, server.StatusDone)
	}
	// A context never trained is refused on both encodings and opens no stream.
	untrained := client.SynthBatch(stats.NewRNG(1), lcfg, 4)
	for _, ingest := range []func(context.Context, string, string, []server.Sample) (*server.IngestResponse, error){c.Ingest, c.IngestFrame} {
		var ae *client.APIError
		if _, err := ingest(bg, "untrained", "10.9.9.9", untrained); !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
			return fmt.Errorf("ingest on an untrained context: %v, want 409", err)
		}
	}
	if after, err := c.Stats(bg); err != nil {
		return fmt.Errorf("stats: %w", err)
	} else if after.Streams != st.Streams {
		return fmt.Errorf("%d streams after the untrained ingests, want %d", after.Streams, st.Streams)
	}

	stop()
	if err := <-served; err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	// Every pending report must have resolved during the drain.
	if pending := srv.Stats().ReportsPending; pending != 0 {
		return fmt.Errorf("%d reports still pending after drain", pending)
	}

	// And the persisted store must boot a second instance with every shard.
	reboot := server.Config{Core: cfg.Core, StoreDir: dir}
	srv2, loadRep, err := server.New(reboot)
	if err != nil {
		return fmt.Errorf("reboot from %s: %w", dir, err)
	}
	if loadRep == nil || loadRep.Partial() {
		return fmt.Errorf("reboot load partial or missing: %v", loadRep)
	}
	want := len(srv.System().Profiles())
	if got := len(srv2.System().Profiles()); got != want {
		return fmt.Errorf("reboot restored %d profiles, want %d", got, want)
	}
	// The store is one file per profile that has anything to save, holding
	// every model, invariant set and signature the drained system had.
	var saved core.LoadReport
	for _, p := range srv.System().Profiles() {
		_, errModel := p.Detector()
		_, errSet := p.Invariants()
		if errModel == nil {
			saved.Models++
		}
		if errSet == nil {
			saved.Invariants++
		}
		saved.Signatures += p.SignatureCount()
		if errModel == nil || errSet == nil || p.SignatureCount() > 0 {
			saved.Files++
		}
	}
	if loadRep.Models != saved.Models || loadRep.Invariants != saved.Invariants ||
		loadRep.Signatures != saved.Signatures || loadRep.Files != saved.Files {
		return fmt.Errorf("reboot %v; the drained system saved %d models, %d invariant sets, %d signatures in %d profile files",
			loadRep, saved.Models, saved.Invariants, saved.Signatures, saved.Files)
	}
	ctx2, cancel2 := context.WithTimeout(bg, 10*time.Second)
	defer cancel2()
	srv2.Shutdown(ctx2)
	return nil
}

// trainLoadContexts trains a performance model and invariants for each
// (workload, node) stream of cfg, using the generator's own synthetic
// batches as training runs.
func trainLoadContexts(sys *core.System, cfg client.LoadConfig) error {
	rng := stats.NewRNG(7)
	for i := 0; i < cfg.Streams; i++ {
		w, node := cfg.StreamID(i)
		ctx := core.Context{Workload: w, IP: node}
		var runs []*metrics.Trace
		var cpis [][]float64
		for r := 0; r < 6; r++ {
			batch := client.SynthBatch(rng.Fork(int64(i*100+r)), cfg, 100)
			tr, err := server.TraceFromSamples(w, node, batch)
			if err != nil {
				return err
			}
			runs = append(runs, tr)
			cpis = append(cpis, tr.CPI)
		}
		if err := sys.TrainPerformanceModel(ctx, cpis); err != nil {
			return err
		}
		if err := sys.TrainInvariants(ctx, runs); err != nil {
			return err
		}
		// Seed one labelled signature so diagnosis has something to match.
		faulty := client.SynthBatch(rng.Fork(int64(i*100+99)), client.LoadConfig{Coupled: 2}, 40)
		tr, err := server.TraceFromSamples(w, node, faulty)
		if err != nil {
			return err
		}
		if err := sys.BuildSignature(ctx, "smoke-fault", tr); err != nil {
			return err
		}
	}
	return nil
}
