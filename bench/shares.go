package main

import (
	"fmt"
	"io"
)

// shareRow is one line of the share-of-time table: a layer's cost per
// operation, in microseconds.
type shareRow struct {
	name string
	us   float64
}

// shareRows lays out, for one traced run, what each layer costs per
// operation, and returns the denominator the shares are taken of: the
// traced pass's plain median operation for the blocking workloads, and the
// process CPU per frame for the ingest workloads (whose apply work is
// asynchronous, off the client's clock).
func shareRows(sp spec, rec runRecord) (rows []shareRow, totalUS float64, of string) {
	v := func(name string) float64 { return rec.Result.Metrics[name].Value }
	p50 := v("bench.traced_op_ms_p50") * 1000
	switch sp.kind {
	case kindIngest:
		handler := "server.ingest_handler_us"
		if sp.json {
			handler = "server.ingest_handler_json_us"
		}
		ticks := float64(sp.frameTicks)
		rows = []shareRow{
			{"server.frame_encode (client side)", v("server.frame_encode_us")},
			{handler[:len(handler)-3] + " (decode, validate, admit)", v(handler)},
			{"server.transport (wall: round trip outside the handler)", v("server.transport_us")},
			{"mic.slider_append (26 sliders, async apply)", v("mic.slider_append_us")},
			{"detect.offer x ticks (async apply)", ticks * v("detect.offer_ns_per_sample") / 1000},
		}
		if b := v("server.ingest_batches"); b > 0 {
			totalUS = v("proc.cpu_s") * 1e6 / b
		}
		return rows, totalUS, "process CPU per frame, client included"
	case kindStorm:
		nFrames := float64(sp.opFrames())
		edges := v("invariant.pairs_screened") + v("invariant.pairs_exact")
		match := "signature.match_scan_us"
		if sp.gen.maskP > 0 {
			match = "signature.match_masked_us"
		}
		rows = []shareRow{
			{"server.frame_encode x frames (client side)", nFrames * v("server.frame_encode_us")},
			{"server.ingest_handler x frames", nFrames * v("server.ingest_handler_us")},
			{"server.transport x frames", nFrames * v("server.transport_us")},
			{"server.queue_wait (diagnose RTT outside the task)", 1000 * v("server.queue_wait_ms")},
			{"server.diagnose (task, server-reported p50)", 1000 * v("server.diagnose_ms_p50")},
			{"  server.trace_build", v("server.trace_build_us")},
			{"  mic.slider_snapshot", v("mic.slider_snapshot_us")},
			{"  mic.screen x trained pairs", edges * v("mic.screen_us_per_pair")},
			{"  mic.exact x pairs scored exactly", v("invariant.pairs_exact") * v("mic.exact_us_per_pair")},
			{"  " + match[:len(match)-3], v(match)},
		}
		return rows, p50, "median verdict"
	case kindTrain:
		rows = []shareRow{
			{"core.train_model (detect.Train: ARIMA fit + thresholds)", 1000 * v("core.train_model_ms")},
			{"core.train_invariants", 1000 * v("core.train_invariants_ms")},
			{"  invariant.matrix x 8 windows (dense MIC, replayed alone)", 8 * 1000 * v("invariant.matrix_ms")},
			{"  invariant.select", v("invariant.select_us")},
		}
		return rows, p50, "median context"
	default:
		rows = []shareRow{
			{"xmlstore.restore (LoadFrom)", 1000 * v("xmlstore.restore_ms")},
			{"xmlstore.save (SaveTo, once, in set-up; not in the total)", 1000 * v("xmlstore.save_ms")},
		}
		return rows, p50, "median restore"
	}
}

// printShares prints the share-of-time table of every traced workload.
func printShares(w io.Writer, traced map[string]runRecord) {
	fmt.Fprintln(w, "== share of time per operation (traced pass; indented rows are parts of the row above)")
	for _, sp := range specs {
		rec, ok := traced[sp.name]
		if !ok {
			continue
		}
		rows, total, of := shareRows(sp, rec)
		fmt.Fprintf(w, "%s — shares of %s = %.1f us; replayed layers explain %.0f%% (ledger.attributed_share), tracing cost %+.1f%%\n",
			sp.name, of, total, 100*rec.Result.Metrics["ledger.attributed_share"].Value, 100*rec.Result.Metrics["trace.overhead_share"].Value)
		for _, r := range rows {
			share := 0.0
			if total > 0 {
				share = 100 * r.us / total
			}
			fmt.Fprintf(w, "  %-58s %12.1f us %6.1f%%\n", r.name, r.us, share)
		}
	}
}
