package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// maskedSamples builds wire samples with metric and CPI validity gaps for
// codec tests: every third tick masks metric 1 (with the zero placeholder
// a lossy agent sends) and every fifth tick masks the CPI.
func maskedSamples(rng *stats.RNG, n int) []Sample {
	out := make([]Sample, n)
	for t := 0; t < n; t++ {
		row := make([]float64, metrics.Count)
		for m := range row {
			row[m] = rng.Uniform(0, 10)
		}
		s := Sample{Metrics: row, CPI: rng.Uniform(0.5, 2)}
		if t%3 == 0 {
			valid := make([]bool, metrics.Count)
			for i := range valid {
				valid[i] = true
			}
			valid[1] = false
			row[1] = 0
			s.Valid = valid
		}
		if t%5 == 0 {
			f := false
			s.CPIValid = &f
			s.CPI = 0
		}
		out[t] = s
	}
	return out
}

// TestFrameRoundTrip pins the codec to the JSON path's semantics: decoding
// an encoded frame must land in exactly the columnar batch fromSamples
// builds from the same wire samples — values, maskValue placeholders and
// validity flags bit for bit.
func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []Sample
	}{
		{"clean", testSamples(17)},
		{"masked", maskedSamples(stats.NewRNG(42), 33)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := AppendFrame(nil, "sort", "10.1.2.3", tc.samples)
			if err != nil {
				t.Fatal(err)
			}
			body, err := splitFrame(buf)
			if err != nil {
				t.Fatal(err)
			}
			var got ingestBatch
			wb, nb, err := decodeFrame(body, &got)
			if err != nil {
				t.Fatal(err)
			}
			if string(wb) != "sort" || string(nb) != "10.1.2.3" {
				t.Fatalf("identity %q@%q", wb, nb)
			}
			var want ingestBatch
			want.fromSamples(tc.samples)
			if got.n != want.n {
				t.Fatalf("n = %d, want %d", got.n, want.n)
			}
			for i := range want.cols {
				if math.Float64bits(got.cols[i]) != math.Float64bits(want.cols[i]) || got.valid[i] != want.valid[i] {
					t.Fatalf("col entry %d: (%v,%v) != (%v,%v)",
						i, got.cols[i], got.valid[i], want.cols[i], want.valid[i])
				}
			}
			for i := range want.cpi {
				if math.Float64bits(got.cpi[i]) != math.Float64bits(want.cpi[i]) || got.cpiOK[i] != want.cpiOK[i] {
					t.Fatalf("cpi entry %d: (%v,%v) != (%v,%v)",
						i, got.cpi[i], got.cpiOK[i], want.cpi[i], want.cpiOK[i])
				}
			}
		})
	}
}

// TestAppendFrameGolden pins the encoder's bytes (length and sha256 per
// batch kind: clean, metric-masked, CPI-masked, both): deployed agents emit
// and daemons accept exactly this layout, so a difference here is a wire
// format break, whatever the round-trip tests say.
func TestAppendFrameGolden(t *testing.T) {
	metricMasked := testSamples(10)
	metricMasked[2].Valid = make([]bool, metrics.Count)
	for i := range metricMasked[2].Valid {
		metricMasked[2].Valid[i] = i != 7
	}
	cpiMasked := testSamples(13)
	cpiMasked[4].CPIValid = new(bool)
	cpiMasked[4].CPI = 0
	for _, tc := range []struct {
		name    string
		samples []Sample
		size    int
		sum     string
	}{
		{"clean", testSamples(17), 3702, "3c9d8fdbe55b498177a8253753a31616476a3e0b02952a9b106db2001862c234"},
		{"metricMasked", metricMasked, 2242, "f36fc4010a54da9ed7186a01aa0def7b026176a70ab599a37f559cbc594407a1"},
		{"cpiMasked", cpiMasked, 2840, "e0671121a24e078fa397804413ec8f9a2f6624d2364babc993149ccdfde4f38d"},
		{"bothMasked", maskedSamples(stats.NewRNG(42), 33), 7293, "ed17b8f2ebad7c22eaafbde3ffc22c792074ed90e97446f1bc9f216564f50b95"},
	} {
		buf, err := AppendFrame(nil, "sort", "10.1.2.3", tc.samples)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(buf)); len(buf) != tc.size || sum != tc.sum {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, %s", tc.name, len(buf), sum, tc.size, tc.sum)
		}
	}
}

// TestMaskValueMatchesTracePolicy: the shared maskValue helper and the trace
// builder agree on the gap semantics — a masked zero placeholder becomes
// NaN, an outside client's non-zero placeholder is kept (the mask alone
// flags it).
func TestMaskValueMatchesTracePolicy(t *testing.T) {
	samples := maskedSamples(stats.NewRNG(43), 30)
	// Give one masked entry a non-zero placeholder too.
	samples[3].Metrics[1] = 7.5
	tr, err := TraceFromSamples("sort", "10.1.2.3", samples)
	if err != nil {
		t.Fatal(err)
	}
	var b ingestBatch
	b.fromSamples(samples)
	for i, s := range samples {
		for m := 0; m < metrics.Count; m++ {
			traceV := tr.Rows[m][i]
			colV := b.cols[m*b.n+i]
			if math.Float64bits(traceV) != math.Float64bits(colV) {
				t.Fatalf("sample %d metric %d: trace %v != columnar %v", i, m, traceV, colV)
			}
		}
		want := maskValue(s.CPI, s.CPIValid == nil || *s.CPIValid)
		if math.Float64bits(tr.CPI[i]) != math.Float64bits(want) ||
			math.Float64bits(b.cpi[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d CPI: trace %v, columnar %v, want %v", i, tr.CPI[i], b.cpi[i], want)
		}
	}
	if !math.IsNaN(b.cols[1*b.n+0]) {
		t.Error("masked zero placeholder not NaN")
	}
	if b.cols[1*b.n+3] != 7.5 {
		t.Errorf("masked non-zero placeholder rewritten to %v", b.cols[1*b.n+3])
	}
}

// TestNonFiniteRejectedOnBothPaths: validity masks are the only sanctioned
// gap channel. The JSON syntax cannot carry NaN, so validateSamples guards
// hand-built batches and the encoder; a crafted binary frame is caught by
// the decoder.
func TestNonFiniteRejectedOnBothPaths(t *testing.T) {
	bad := testSamples(4)
	bad[2].Metrics[5] = math.NaN()
	if err := validateSamples(bad); err == nil {
		t.Fatal("validateSamples accepted a NaN metric")
	}
	if _, err := AppendFrame(nil, "sort", "n1", bad); err == nil {
		t.Fatal("AppendFrame accepted a NaN metric")
	}
	badCPI := testSamples(4)
	badCPI[1].CPI = math.Inf(1)
	if err := validateSamples(badCPI); err == nil {
		t.Fatal("validateSamples accepted an Inf CPI")
	}

	// Craft the frame the encoder refuses to build: encode clean samples,
	// then patch a NaN into a metric column and into the CPI column.
	clean := testSamples(4)
	buf, err := AppendFrame(nil, "sort", "n1", clean)
	if err != nil {
		t.Fatal(err)
	}
	body, err := splitFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	patch := func(off int) []byte {
		cp := append([]byte(nil), body...)
		for i := 0; i < 8; i++ {
			cp[off+i] = 0xff // quiet NaN
		}
		return cp
	}
	colsOff := frameHeaderLen + len("sort") + len("n1")
	var b ingestBatch
	if _, _, err := decodeFrame(patch(colsOff), &b); err == nil || !strings.Contains(err.Error(), "not non-finite values") {
		t.Fatalf("NaN metric column decoded: %v", err)
	}
	cpiOff := colsOff + metrics.Count*4*8
	if _, _, err := decodeFrame(patch(cpiOff), &b); err == nil || !strings.Contains(err.Error(), "not non-finite values") {
		t.Fatalf("NaN CPI column decoded: %v", err)
	}

	// And the HTTP surface: the patched frame is a 400, not a panic or 202.
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([]byte(nil), buf[:4]...), patch(colsOff)...)
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(full)))
	req.Header.Set("Content-Type", ContentTypeFrame)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("patched frame: status %d, body %s", rec.Code, rec.Body)
	}
}

// TestBadValueErrorsNameOffsets is the table pin for the admission rejections:
// a non-finite value is refused with the metric index, the metric name, and
// the sample offset — on the JSON path (validateSamples) and byte-identically
// on the binary path (decodeFrame).
func TestBadValueErrorsNameOffsets(t *testing.T) {
	const n = 4
	cases := []struct {
		name   string
		metric int // -1 = CPI
		sample int
		v      float64
	}{
		{"NaN metric", 5, 2, math.NaN()},
		{"positive Inf first cell", 0, 0, math.Inf(1)},
		{"negative Inf last sample", 10, 3, math.Inf(-1)},
		{"NaN CPI", -1, 1, math.NaN()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantSubstrs []string
			if tc.metric >= 0 {
				wantSubstrs = []string{
					fmt.Sprintf("metric %d (%s)", tc.metric, metrics.Names[tc.metric]),
					fmt.Sprintf("at sample %d", tc.sample),
				}
			} else {
				wantSubstrs = []string{fmt.Sprintf("cpi at sample %d", tc.sample)}
			}
			check := func(path string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the bad value", path)
				}
				for _, sub := range wantSubstrs {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("%s error %q missing %q", path, err, sub)
					}
				}
			}

			// JSON path: the value rides decoded samples into validateSamples.
			samples := testSamples(n)
			if tc.metric >= 0 {
				samples[tc.sample].Metrics[tc.metric] = tc.v
			} else {
				samples[tc.sample].CPI = tc.v
			}
			check("validateSamples", validateSamples(samples))

			// Binary path: patch the value into an encoded clean frame — the
			// encoder itself refuses to build one — and decode.
			buf, err := AppendFrame(nil, "sort", "n1", testSamples(n))
			if err != nil {
				t.Fatal(err)
			}
			body, err := splitFrame(buf)
			if err != nil {
				t.Fatal(err)
			}
			colsOff := frameHeaderLen + len("sort") + len("n1")
			off := colsOff + (tc.metric*n+tc.sample)*8
			if tc.metric < 0 {
				off = colsOff + (metrics.Count*n+tc.sample)*8
			}
			binary.LittleEndian.PutUint64(body[off:], math.Float64bits(tc.v))
			var b ingestBatch
			_, _, derr := decodeFrame(body, &b)
			check("decodeFrame", derr)
		})
	}
}

// TestDecodeFrameRejectsMalformed walks the decoder's error surface: every
// malformed input must error out before any batch state is sized from the
// header.
func TestDecodeFrameRejectsMalformed(t *testing.T) {
	good, err := AppendFrame(nil, "sort", "n1", testSamples(9))
	if err != nil {
		t.Fatal(err)
	}
	body, err := splitFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(cp []byte) []byte) []byte {
		return f(append([]byte(nil), body...))
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     body[:frameHeaderLen-1],
		"magic":     mutate(func(cp []byte) []byte { cp[0] = 'x'; return cp }),
		"version":   mutate(func(cp []byte) []byte { cp[4] = 9; return cp }),
		"flags":     mutate(func(cp []byte) []byte { cp[5] = 0x80; return cp }),
		"stageFlag": mutate(func(cp []byte) []byte { cp[5] = 0x04; return cp }),
		"zeroName":  mutate(func(cp []byte) []byte { cp[6] = 0; return cp }),
		"badCount":  mutate(func(cp []byte) []byte { cp[8] = 0xff; return cp }),
		"zeroN":     mutate(func(cp []byte) []byte { cp[10], cp[11], cp[12], cp[13] = 0, 0, 0, 0; return cp }),
		"hugeN":     mutate(func(cp []byte) []byte { cp[10], cp[11], cp[12], cp[13] = 0xff, 0xff, 0xff, 0x7f; return cp }),
		"truncated": body[:len(body)-5],
		"padded":    append(append([]byte(nil), body...), 0),
	}
	for name, in := range cases {
		var b ingestBatch
		if _, _, err := decodeFrame(in, &b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Only bits 0 and 1 are defined; the lowest undefined one is refused by
	// name, not by a length mismatch further on.
	var b ingestBatch
	if _, _, err := decodeFrame(cases["stageFlag"], &b); err == nil || !strings.Contains(err.Error(), "unknown frame flags 0x4") {
		t.Errorf("flags 0x04: error %v, want unknown frame flags", err)
	}
	// The length prefix must account for the body exactly.
	if _, err := splitFrame(good[:len(good)-1]); err == nil {
		t.Error("splitFrame accepted a short body")
	}
	if _, err := splitFrame(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("splitFrame accepted a padded body")
	}
	if _, err := splitFrame([]byte{1, 2}); err == nil {
		t.Error("splitFrame accepted a truncated prefix")
	}
}

// TestIngestBatchPathAllocs pins the steady-state ingest hot path at zero
// allocations: a binary frame decoded into a recycled ingestBatch (what
// batchPool hands a request once warm) and slid into a full colWindow. A
// per-sample allocation creeping in here is invisible to a wall-clock budget
// and shows immediately in this count — with validity masks on the wire as
// much as without.
func TestIngestBatchPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []Sample
	}{
		{"clean", testSamples(24)},
		{"masked", maskedSamples(stats.NewRNG(3), 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := AppendFrame(nil, "wordcount", "10.0.0.2", tc.samples)
			if err != nil {
				t.Fatal(err)
			}
			body, err := splitFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			var w colWindow
			w.init(60)
			b := new(ingestBatch)
			step := func() {
				if _, _, err := decodeFrame(body, b); err != nil {
					t.Fatal(err)
				}
				w.slide(b)
			}
			for w.n < w.cap { // fill the window: steady state is the evicting slide
				step()
			}
			if got := testing.AllocsPerRun(100, step); got != 0 {
				t.Errorf("decode + slide allocates %v times per %d-sample batch, want 0", got, len(tc.samples))
			}
		})
	}
}
