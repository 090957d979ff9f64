package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// FuzzDecodeFrame hammers the binary frame decoder with arbitrary bytes:
// whatever arrives, it must never panic, and a successful decode must have
// verified the header against the bytes actually present — the batch it
// fills is sized by the frame, never by an unchecked header field.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(samples []Sample) {
		buf, err := AppendFrame(nil, "sort", "10.0.0.1", samples)
		if err != nil {
			f.Fatal(err)
		}
		body, err := splitFrame(buf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	seed(testSamples(1))
	seed(testSamples(11))
	seed(maskedSamples(stats.NewRNG(77), 9))
	// Truncated and corrupted variants of a valid frame.
	good, err := AppendFrame(nil, "wc", "n2", testSamples(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[4 : len(good)-7])
	crooked := append([]byte(nil), good[4:]...)
	crooked[10] = 0xee // inflated sample count
	f.Add(crooked)
	// A valid frame setting a flag bit the format does not define: a
	// must-reject seed (checked below for whatever the fuzzer mutates it to).
	flagged := append([]byte(nil), good[4:]...)
	flagged[5] |= 0x04
	f.Add(flagged)
	f.Add([]byte{})
	f.Add([]byte("IXF1"))

	f.Fuzz(func(t *testing.T, body []byte) {
		var b ingestBatch
		wb, nb, err := decodeFrame(body, &b)
		if err != nil {
			return
		}
		if body[5]&^(frameFlagValid|frameFlagCPIValid) != 0 {
			t.Fatalf("decoded a frame with unknown flags %#x", body[5])
		}
		if b.n < 1 || b.n > MaxFrameSamples {
			t.Fatalf("decoded sample count %d outside [1,%d]", b.n, MaxFrameSamples)
		}
		if len(wb) == 0 || len(nb) == 0 {
			t.Fatal("decoded empty identity")
		}
		// The batch the decoder filled is bounded by the input: every
		// column byte decoded came out of the body.
		if metrics.Count*b.n*8 > len(body) {
			t.Fatalf("batch holds %d column bytes from a %d-byte frame", metrics.Count*b.n*8, len(body))
		}
		if len(b.cols) != metrics.Count*b.n || len(b.cpi) != b.n ||
			len(b.valid) != metrics.Count*b.n || len(b.cpiOK) != b.n {
			t.Fatalf("inconsistent batch shape: n=%d cols=%d valid=%d cpi=%d cpiOK=%d",
				b.n, len(b.cols), len(b.valid), len(b.cpi), len(b.cpiOK))
		}
	})
}

// FuzzIngestJSON hammers the JSON ingest body — the other decoder of bytes
// the daemon did not write — through the handler's own steps: decode with
// unknown fields refused, validateSamples, TraceFromSamples. Whatever
// arrives, it must never panic, and a batch is either refused or becomes a
// trace holding every valid entry bit for bit, every invalid entry flagged,
// a zero placeholder as NaN and a non-zero one kept.
func FuzzIngestJSON(f *testing.F) {
	held := maskedSamples(stats.NewRNG(78), 6)
	held[0].Metrics[1], held[0].CPI = 7.5, 1.25 // non-zero placeholders
	wide := testSamples(2)
	wide[1].Metrics = append(wide[1].Metrics, 1)
	for _, req := range []IngestRequest{
		{Workload: "wordcount", Node: "10.0.0.2", Samples: testSamples(3)},
		{Workload: "sort", Node: "10.0.0.3", Samples: maskedSamples(stats.NewRNG(77), 9)},
		{Workload: "sort", Node: "10.0.0.3", Samples: held},
		{Workload: "grep", Node: "n", Samples: testSamples(200)},
		{Workload: "grep", Node: "n", Samples: wide},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"workload":"w","node":"n","samples":[{"metrics":[1,2],"cpi":1}]}`))
	f.Add([]byte(`{"workload":"w","node":"n","samples":[{"metrics":[1e400],"cpi":1}]}`))
	f.Add([]byte(`{"workload":"w","node":"n","samples":[],"stages":[{"stage":"map"}]}`))
	f.Add([]byte(`{"workload":"w","node":"n","samples":[{"metrics":null,"valid":[true],"cpiValid":false}]}`))
	f.Add([]byte(`{"workload":"w","node":"n","samples":[{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req IngestRequest
		dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		verr := validateSamples(req.Samples)
		tr, err := TraceFromSamples(req.Workload, req.Node, req.Samples)
		if (verr == nil) != (err == nil) {
			t.Fatalf("validateSamples says %v, TraceFromSamples says %v", verr, err)
		}
		if err != nil {
			return
		}
		if tr.Len() != len(req.Samples) {
			t.Fatalf("trace of %d ticks from %d samples", tr.Len(), len(req.Samples))
		}
		check := func(what string, i int, got float64, gotValid bool, v float64, valid bool) {
			switch {
			case gotValid != valid:
				t.Fatalf("%s at sample %d: flagged valid=%v, sent valid=%v", what, i, gotValid, valid)
			case !valid && v == 0:
				if !math.IsNaN(got) {
					t.Fatalf("%s at sample %d: zero placeholder stored as %v, want NaN", what, i, got)
				}
			case math.Float64bits(got) != math.Float64bits(v):
				t.Fatalf("%s at sample %d (valid=%v): stored %v, sent %v", what, i, valid, got, v)
			}
		}
		for i, s := range req.Samples {
			for m, v := range s.Metrics {
				mask := tr.MetricValid(m)
				check(metrics.Names[m], i, tr.Rows[m][i], mask == nil || mask[i], v, s.Valid == nil || s.Valid[m])
			}
			check("cpi", i, tr.CPI[i], tr.CPIValid == nil || tr.CPIValid[i], s.CPI, s.CPIValid == nil || *s.CPIValid)
		}
	})
}
