package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
)

// pass is the raw outcome of one pass of a workload: the timed stints' stats
// and operations, and counters over the whole pass, warm-up included.
type pass struct {
	stints    []stintStat
	done      []op // operations of the timed stints
	attempted int64
	failed    int64
	checks    []string // output-check failures
	spans     []span   // traced passes only

	// Serving passes additionally carry:
	before, after *server.Stats
	acked         int64     // samples acknowledged over the whole pass
	verdicts      int64     // verdicts completed over the whole pass
	maxDepth      int64     // deepest queue any ingest acknowledgement reported
	diagMS        []float64 // server-reported diagnose latency per timed verdict
	cpuS          float64   // process CPU over the pass, calibrations excluded
	mallocs       uint64
	gcPauseMS     float64
	gcCycles      uint32
}

func (p *pass) fail(format string, args ...any) {
	if len(p.checks) < 20 { // enough to diagnose, bounded under a systematic failure
		p.checks = append(p.checks, fmt.Sprintf(format, args...))
	}
}

// servingClient is one closed-loop client connection and the contexts it
// alone owns. Its replay position and trace numbering carry over from stint
// to stint.
type servingClient struct {
	c      *client.Client
	ctxs   []*ctxInput
	batch  [][][]server.Sample // ingest: per context, the replay cut in frames
	refs   [][]verdict         // storm: per context, the reference verdict per held-out window
	cursor []int               // per context, the next frame or fault window
	turn   int
	trace  int64
	rec    *recorder
	pass   pass
}

// send ingests one frame through the workload's encoding, retrying a shed
// frame so per-stream order holds; every refusal counts as a failure.
func (sc *servingClient) send(ctx context.Context, sp spec, c *ctxInput, samples []server.Sample) (*server.IngestResponse, error) {
	for {
		sc.pass.attempted++
		var resp *server.IngestResponse
		var err error
		if sp.json {
			resp, err = sc.c.Ingest(ctx, c.ctx.Workload, c.ctx.IP, samples)
		} else {
			resp, err = sc.c.IngestFrame(ctx, c.ctx.Workload, c.ctx.IP, samples)
		}
		if err == nil {
			sc.pass.acked += int64(resp.Accepted)
			if resp.QueueDepth > sc.pass.maxDepth {
				sc.pass.maxDepth = resp.QueueDepth
			}
			if resp.Accepted != len(samples) {
				return nil, fmt.Errorf("bench: %d of %d samples acknowledged", resp.Accepted, len(samples))
			}
			return resp, nil
		}
		sc.pass.failed++
		if !client.IsShed(err) {
			return nil, err
		}
	}
}

// ingestStint replays the client's contexts round-robin until end. One turn
// pushes one context sp.opFrames() consecutive frames, timed as one operation.
func (sc *servingClient) ingestStint(ctx context.Context, sp spec, epoch time.Time, timed bool, end time.Time) ([]op, error) {
	framesPerOp := sp.opFrames()
	var rec *recorder
	if timed {
		rec = sc.rec
	}
	var done []op
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return done, nil
		}
		i := sc.turn % len(sc.ctxs)
		sc.turn++
		root := rec.id()
		ft, samples := t0, 0
		for f := 0; f < framesPerOp; f++ {
			frame := sc.batch[i][sc.cursor[i]%len(sc.batch[i])]
			sc.cursor[i]++
			if _, err := sc.send(ctx, sp, sc.ctxs[i], frame); err != nil {
				return nil, err
			}
			now := time.Now()
			rec.add(sc.trace, root, "ingest_frame", ft, now)
			ft, samples = now, samples+len(frame)
		}
		done = append(done, op{t0.Sub(epoch), ft.Sub(epoch), int64(samples)})
		rec.put(root, sc.trace, -1, "ingest_window", t0, ft)
		sc.trace++
	}
}

// stormStint issues verdicts round-robin over the client's contexts until
// end: the next held-out fault window as frames, then a blocking diagnosis of
// the stream window, checked against the library's answer for that window.
func (sc *servingClient) stormStint(ctx context.Context, sp spec, epoch time.Time, timed bool, end time.Time) ([]op, error) {
	var rec *recorder
	if timed {
		rec = sc.rec
	}
	var done []op
	for {
		t0 := time.Now()
		if !t0.Before(end) {
			return done, nil
		}
		i := sc.turn % len(sc.ctxs)
		sc.turn++
		c := sc.ctxs[i]
		k := sc.cursor[i] % len(c.verdicts)
		sc.cursor[i]++
		root := rec.id()
		ft := t0
		for _, frame := range frames(c.verdicts[k].samples, sp.frameTicks) {
			if _, err := sc.send(ctx, sp, c, frame); err != nil {
				return nil, err
			}
			now := time.Now()
			rec.add(sc.trace, root, "ingest_frame", ft, now)
			ft = now
		}
		sc.pass.attempted++
		resp, err := sc.c.Diagnose(ctx, c.ctx.Workload, c.ctx.IP, nil, true)
		t1 := time.Now()
		if err != nil {
			sc.pass.failed++
			if client.IsShed(err) {
				continue
			}
			return nil, err
		}
		rep := resp.Report
		if resp.Status != server.StatusDone || rep == nil || rep.Diagnosis == nil {
			sc.pass.failed++
			sc.pass.fail("%v verdict %d: report %s not done", c.ctx, k, resp.ID)
			continue
		}
		sc.pass.verdicts++
		got := verdict{tuple: rep.Diagnosis.Tuple, cause: rep.Diagnosis.RootCause}
		if got != sc.refs[i][k] {
			sc.pass.fail("%v verdict %d (%s): served %s/%s, library %s/%s", c.ctx, k, c.verdicts[k].label,
				got.cause, got.tuple, sc.refs[i][k].cause, sc.refs[i][k].tuple)
		}
		done = append(done, op{t0.Sub(epoch), t1.Sub(epoch), 1})
		if timed {
			sc.pass.diagMS = append(sc.pass.diagMS, rep.LatencyMS)
		}
		if rec != nil {
			rtt := rec.add(sc.trace, root, "diagnose_rtt", ft, t1)
			// The server reports only how long the diagnosis task ran; it
			// ended just before the response left, so anchor it there.
			lat := time.Duration(rep.LatencyMS * float64(time.Millisecond))
			if lat > t1.Sub(ft) {
				lat = t1.Sub(ft)
			}
			rec.add(sc.trace, rtt, "server.diagnose", t1.Add(-lat), t1)
			rec.put(root, sc.trace, -1, "verdict", t0, t1)
		}
		sc.trace++
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// drained waits until the server has applied everything it admitted and
// returns the stats it then reports. Ingest is acknowledged on admission and
// applied asynchronously; a stint is over only once the queues are empty.
func drained(ctx context.Context, c *client.Client) (*server.Stats, error) {
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			return nil, err
		}
		if st.QueueDepth == 0 {
			return st, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// servingPass drives one closed-loop pass of d against the server and merges
// the clients' outcomes. With traced set, spans are recorded.
func servingPass(sp spec, scs []*servingClient, d time.Duration, traced bool) (*pass, error) {
	ctx := context.Background()
	before, err := scs[0].c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	u0 := readUsage()
	epoch := time.Now()
	for i, sc := range scs {
		sc.pass = pass{}
		sc.rec = nil
		sc.trace = int64(i) << 40
		if traced {
			sc.rec = newRecorder(epoch, int32(i)<<26)
		}
	}
	p := &pass{before: before}
	p.stints, p.done, err = runStints(epoch, d,
		func(w int, timed bool, end time.Time) ([]op, error) {
			if sp.kind == kindIngest {
				return scs[w].ingestStint(ctx, sp, epoch, timed, end)
			}
			return scs[w].stormStint(ctx, sp, epoch, timed, end)
		},
		func() error {
			p.after, err = drained(ctx, scs[0].c)
			return err
		},
		// An ingest frame is acknowledged on admission and applied later:
		// the samples of a stint are done when the queues are empty.
		sp.kind == kindIngest)
	if err != nil {
		return nil, err
	}
	p.usageSince(u0)
	for _, sc := range scs {
		q := &sc.pass
		p.attempted += q.attempted
		p.failed += q.failed
		p.checks = append(p.checks, q.checks...)
		p.acked += q.acked
		p.verdicts += q.verdicts
		if q.maxDepth > p.maxDepth {
			p.maxDepth = q.maxDepth
		}
		p.diagMS = append(p.diagMS, q.diagMS...)
		if sc.rec != nil {
			p.spans = append(p.spans, sc.rec.spans...)
		}
	}
	if got := p.after.IngestSamples - before.IngestSamples; got != p.acked {
		p.fail("stats.ingestSamples advanced by %d, %d samples were acknowledged", got, p.acked)
	}
	if got := p.after.ReportsDone - before.ReportsDone; got != p.verdicts {
		p.fail("stats.reportsDone advanced by %d, %d verdicts were received", got, p.verdicts)
	}
	if got := p.after.ReportsFailed - before.ReportsFailed; got != 0 {
		p.fail("stats.reportsFailed advanced by %d", got)
	}
	return p, nil
}

// checkWindow returns the fixed sample sequence an ingest workload ends
// every context with: it fills the whole sliding window, so the window — and
// the diagnosis of it — depends on the seed alone, not on how far the timed
// replay got.
func checkWindow(sp spec, c *ctxInput) []server.Sample {
	fault := c.verdicts[0].samples
	out := append([]server.Sample(nil), c.replay[:sp.windowCap-len(fault)]...)
	return append(out, fault...)
}

// ingestEpilogue sends every context its check window through the
// workload's encoding, diagnoses the stream window, and compares the verdict
// with the library's for the same samples. The returned digest covers every
// context's verdict: ingest_json and ingest_binary, fed the same samples, must
// print the same one.
func ingestEpilogue(sp spec, scs []*servingClient, refs map[*ctxInput]verdict, p *pass) (uint64, error) {
	ctx := context.Background()
	h := fnv.New64a()
	for _, sc := range scs {
		sc.pass = pass{}
		for _, c := range sc.ctxs {
			for _, frame := range frames(checkWindow(sp, c), sp.frameTicks) {
				if _, err := sc.send(ctx, sp, c, frame); err != nil {
					return 0, err
				}
			}
			resp, err := sc.c.Diagnose(ctx, c.ctx.Workload, c.ctx.IP, nil, true)
			if err != nil {
				return 0, err
			}
			if resp.Status != server.StatusDone || resp.Report.Diagnosis == nil {
				p.fail("%v check window: report %s not done", c.ctx, resp.ID)
				continue
			}
			got := verdict{tuple: resp.Report.Diagnosis.Tuple, cause: resp.Report.Diagnosis.RootCause}
			if got != refs[c] {
				p.fail("%v check window: served %s/%s, library %s/%s", c.ctx, got.cause, got.tuple, refs[c].cause, refs[c].tuple)
			}
			fmt.Fprintf(h, "%v=%s/%s;", c.ctx, got.cause, got.tuple)
		}
		p.attempted += sc.pass.attempted
		p.failed += sc.pass.failed
	}
	return h.Sum64(), nil
}
