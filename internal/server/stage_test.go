// Stage-marker plumbing through the serving layer: both ingest encodings
// carry optional stage marks, the sliding window preserves them across batch
// boundaries (carry-forward), and the rejection errors for bad values and bad
// marks name exactly where the offence sits.
package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
)

// waitSamples blocks until the stream has applied n samples.
func waitSamples(t *testing.T, st *stream, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.ingested.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d samples, want %d", st.ingested.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStageMarksRoundTrip feeds the same staged batches to a JSON server and
// a binary server: a mark applies from its index onward, an unmarked batch
// inherits the stream's current stage (carry-forward), and the window trace
// re-emits the marks so StageWindows sees the stage partition the producer
// declared.
func TestStageMarksRoundTrip(t *testing.T) {
	cfg := Config{Core: core.DefaultConfig(), WindowCap: 64}
	jsonSrv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	binSrv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Workload: "sort", IP: "10.9.0.1"}
	batches := []struct {
		n     int
		marks []StageMark
	}{
		{10, []StageMark{{Stage: "map", Index: 0}}},
		{8, nil}, // unmarked: inherits "map" from the window
		{12, []StageMark{{Stage: "shuffle", Index: 4}, {Stage: "reduce", Index: 9}}},
	}
	total := 0
	for _, bt := range batches {
		samples := testSamples(bt.n)
		rec := postJSON(t, jsonSrv.Handler(), "/v1/ingest", IngestRequest{
			Workload: ctx.Workload, Node: ctx.IP, Samples: samples, Stages: bt.marks,
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("json staged ingest: status %d, body %s", rec.Code, rec.Body)
		}
		buf, err := EncodeFrameStages(ctx.Workload, ctx.IP, samples, bt.marks)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(buf)))
		req.Header.Set("Content-Type", ContentTypeFrame)
		frec := httptest.NewRecorder()
		binSrv.Handler().ServeHTTP(frec, req)
		if frec.Code != http.StatusAccepted {
			t.Fatalf("binary staged ingest: status %d, body %s", frec.Code, frec.Body)
		}
		total += bt.n
	}
	jst, bst := jsonSrv.stream(ctx), binSrv.stream(ctx)
	waitSamples(t, jst, int64(total))
	waitSamples(t, bst, int64(total))

	jtr, btr := jst.windowTrace(), bst.windowTrace()
	// Batch 2 (ticks 10..17) inherits "map"; batch 3's unmarked prefix
	// (ticks 18..21) does too; then shuffle covers 22..26 and reduce the rest.
	want := []metrics.StageWindow{
		{Stage: "map", Lo: 0, Hi: 22},
		{Stage: "shuffle", Lo: 22, Hi: 27},
		{Stage: "reduce", Lo: 27, Hi: 30},
	}
	if got := jtr.StageWindows(); !reflect.DeepEqual(got, want) {
		t.Errorf("json stage windows = %+v, want %+v", got, want)
	}
	if got := btr.StageWindows(); !reflect.DeepEqual(got, want) {
		t.Errorf("binary stage windows = %+v, want %+v", got, want)
	}
}

// TestStageMarksSurviveEviction: sliding past capacity keeps each remaining
// tick's label attached — a window that has evicted a whole stage reports
// only the stages still covering windowed samples.
func TestStageMarksSurviveEviction(t *testing.T) {
	var w colWindow
	w.init(8)
	feed := func(n int, marks []StageMark) {
		b := getBatch()
		defer putBatch(b)
		b.fromSamples(testSamples(n), marks)
		w.slide(b)
	}
	feed(6, []StageMark{{Stage: "map", Index: 0}})
	feed(6, []StageMark{{Stage: "reduce", Index: 2}})
	// 12 ticks into an 8-cap window: ticks 0-3 evicted. Remaining labels:
	// map covers former ticks 4-7 (now 0-3), reduce the rest.
	want := []string{"map", "map", "map", "map", "reduce", "reduce", "reduce", "reduce"}
	if !reflect.DeepEqual(w.stages[:w.n], want) {
		t.Fatalf("windowed stages = %v, want %v", w.stages[:w.n], want)
	}
}

// TestStageFrameDecodesToSameBatch: a staged frame decodes into exactly the
// columnar batch fromSamples builds from the same samples and marks.
func TestStageFrameDecodesToSameBatch(t *testing.T) {
	samples := testSamples(9)
	marks := []StageMark{{Stage: "map", Index: 0}, {Stage: "shuffle", Index: 5}}
	buf, err := EncodeFrameStages("sort", "n1", samples, marks)
	if err != nil {
		t.Fatal(err)
	}
	body, err := splitFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got ingestBatch
	if _, _, err := decodeFrame(body, &got); err != nil {
		t.Fatal(err)
	}
	var want ingestBatch
	want.fromSamples(samples, marks)
	if !reflect.DeepEqual(got.stages, want.stages) {
		t.Fatalf("decoded stages %v, want %v", got.stages, want.stages)
	}
}

// TestStageMarkValidation: malformed marks are refused identically by the
// JSON handler, the frame encoder, and the shared validator.
func TestStageMarkValidation(t *testing.T) {
	const n = 10
	cases := []struct {
		name  string
		marks []StageMark
	}{
		{"empty label", []StageMark{{Stage: "", Index: 0}}},
		{"oversized label", []StageMark{{Stage: strings.Repeat("x", 256), Index: 0}}},
		{"negative index", []StageMark{{Stage: "map", Index: -1}}},
		{"index past batch", []StageMark{{Stage: "map", Index: n}}},
		{"non-increasing", []StageMark{{Stage: "map", Index: 3}, {Stage: "reduce", Index: 3}}},
	}
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := validateStageMarks(tc.marks, n); err == nil {
				t.Error("validateStageMarks accepted the marks")
			}
			if _, err := EncodeFrameStages("sort", "n1", testSamples(n), tc.marks); err == nil {
				t.Error("EncodeFrameStages accepted the marks")
			}
			rec := postJSON(t, srv.Handler(), "/v1/ingest", IngestRequest{
				Workload: "sort", Node: "n1", Samples: testSamples(n), Stages: tc.marks,
			})
			if rec.Code != http.StatusBadRequest {
				t.Errorf("json ingest: status %d, want 400", rec.Code)
			}
		})
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
			buf, err := EncodeFrame("sort", "n1", testSamples(n))
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
