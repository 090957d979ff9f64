package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
)

// buildSystem is the program-side set-up: train every context of in on sys,
// label its signature runs, and merge its synthetic signatures (cut to the
// context's trained invariant count). Contexts build concurrently, one per
// core, as invarctl trains the nodes of a workload.
func buildSystem(sys *core.System, in *inputs) error {
	errs := make([]error, len(in.ctxs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, c := range in.ctxs {
		wg.Add(1)
		go func(i int, c *ctxInput) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = buildContext(sys, c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func buildContext(sys *core.System, c *ctxInput) error {
	if err := sys.TrainPerformanceModel(c.ctx, c.cpis); err != nil {
		return fmt.Errorf("bench: training model %v: %w", c.ctx, err)
	}
	if err := sys.TrainInvariants(c.ctx, c.windows); err != nil {
		return fmt.Errorf("bench: training invariants %v: %w", c.ctx, err)
	}
	for _, l := range c.sigs {
		if err := sys.BuildSignature(c.ctx, l.label, l.trace); err != nil {
			return fmt.Errorf("bench: labelling %s on %v: %w", l.label, c.ctx, err)
		}
	}
	if len(c.synth) == 0 {
		return nil
	}
	set, err := sys.Invariants(c.ctx)
	if err != nil {
		return err
	}
	for _, e := range c.synth {
		e.Tuple = e.Tuple[:set.Len()]
		sys.MergeSignature(e)
	}
	return nil
}

// fixture is one in-process server instance listening on a loopback socket.
type fixture struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

// serve builds the server for sp, trains it in-process on in, and starts it
// on an ephemeral loopback port — everything before the first request can be
// answered.
func serve(sp spec, in *inputs) (*fixture, error) {
	cfg := core.DefaultConfig() // train-once: lifecycle and fleet off
	// Small bounded stores — the per-profile report cache here, the server's
	// report store below — fill within the warm-up even at the slowest
	// verdict rate. The run then measures the steady state of a daemon that
	// has been up for a while (every insert evicts), and the live heap does
	// not depend on how many verdicts the run got through.
	cfg.AssocCacheSize = 64
	srv, _, err := server.New(server.Config{
		Core:      cfg,
		QueueCap:  queueCap,
		WindowCap: sp.windowCap,
		ReportCap: 256,
	})
	if err != nil {
		return nil, err
	}
	if err := buildSystem(srv.System(), in); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fixture{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return f, nil
}

// close stops the listener, drains the server's queues and joins its workers.
func (f *fixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	<-f.served
	if serr := f.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// newClient returns a typed client with its own connection pool, so each
// client goroutine rides exactly one keep-alive connection.
func (f *fixture) newClient() (*client.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return client.New(f.base, &http.Client{Transport: tr, Timeout: 30 * time.Second}), tr.CloseIdleConnections
}

// verdict is a diagnosis reduced to what the output checks compare.
type verdict struct {
	tuple string
	cause string
}

// reference diagnoses samples on sys in-process — the library answer a
// served verdict for the same window must reproduce.
func reference(sys *core.System, ctx core.Context, samples []server.Sample) (verdict, error) {
	tr, err := server.TraceFromSamples(ctx.Workload, ctx.IP, samples)
	if err != nil {
		return verdict{}, err
	}
	d, err := sys.Diagnose(ctx, tr)
	if err != nil {
		return verdict{}, err
	}
	return verdict{tuple: d.Tuple.String(), cause: d.RootCause()}, nil
}

// setup performs build setupRepeats times and returns the first result (the
// reference instance), the last (the one measured) and the median build time,
// in calibrated seconds and as the wall clock read it. Instances in between
// are released through drop.
func setup[T any](build func() (T, error), drop func(T)) (first, last T, calS, rawS float64, err error) {
	var cal, raw []float64
	for i := 0; i < setupRepeats; i++ {
		var v T
		r, c, err := calibrated(func() (err error) {
			v, err = build()
			return err
		})
		if err != nil {
			return first, last, 0, 0, err
		}
		raw, cal = append(raw, r), append(cal, c)
		switch i {
		case 0:
			first = v
		case setupRepeats - 1:
			last = v
		default:
			drop(v)
		}
	}
	return first, last, median(cal), median(raw), nil
}
