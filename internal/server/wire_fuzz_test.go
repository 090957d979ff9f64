package server

import (
	"encoding/json"
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

// FuzzIngestJSON holds decodeIngestJSON — the other decoder of bytes the
// daemon did not write — differentially to the encoding/json path it
// replaced (referenceRequest), reading every body as each of the three
// queued requests (ingest, diagnose, label): whatever arrives, it must never
// panic, it must accept a body exactly when the reference does, except that
// a body with a repeated key is refused, and when both accept they must
// agree on the identity, wait flag and problem and on every column, flag and
// CPI bit, which must hold the sent values (valid ones bit for bit, a zero
// placeholder as NaN, a non-zero one kept), or on no samples at all. A
// refusal after Decode succeeded must carry the reference's words.
func FuzzIngestJSON(f *testing.F) {
	held := maskedSamples(stats.NewRNG(78), 6)
	held[0].Metrics[1], held[0].CPI = 7.5, 1.25 // non-zero placeholders
	wide := testSamples(2)
	wide[1].Metrics = append(wide[1].Metrics, 1)
	for _, req := range []any{
		IngestRequest{Workload: "wordcount", Node: "10.0.0.2", Samples: testSamples(3)},
		IngestRequest{Workload: "sort", Node: "10.0.0.3", Samples: maskedSamples(stats.NewRNG(77), 9)},
		IngestRequest{Workload: "sort", Node: "10.0.0.3", Samples: held},
		IngestRequest{Workload: "grep", Node: "n", Samples: testSamples(200)},
		IngestRequest{Workload: "grep", Node: "n", Samples: wide},
		DiagnoseRequest{Workload: "sort", Node: "10.0.0.3", Wait: true},
		DiagnoseRequest{Workload: "sort", Node: "10.0.0.3", Samples: held, Wait: true},
		SignatureRequest{Workload: "grep", Node: "n", Problem: "cpu-hog"},
		SignatureRequest{Workload: "grep", Node: "n", Problem: "mem-hog", Samples: testSamples(4)},
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
	for _, tc := range ingestJSONCases {
		f.Add([]byte(tc.body))
	}
	for _, tc := range controlJSONCases {
		f.Add([]byte(tc.body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range requestTypes {
			if _, _, diff := compareIngestJSON(body, rt.new); diff != "" {
				t.Fatalf("as %s: %s", rt.name, diff)
			}
		}
	})
}

// FuzzJSONNumber holds the decoder's number scan and its in-house
// Eisel-Lemire step to numberEnd + strconv.ParseFloat on arbitrary bytes: the
// same end, the same refusal and the same bits, the step's edges among the
// seeds.
func FuzzJSONNumber(f *testing.F) {
	for _, tc := range numberEdges {
		f.Add([]byte(tc.lit + ","))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		if diff := numberDiff(buf); diff != "" {
			t.Fatalf("%q: %s", buf, diff)
		}
	})
}
