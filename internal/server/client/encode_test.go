package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"invarnetx/internal/server"
	"invarnetx/internal/stats"
)

// appendDiff holds appendRequest to json.Marshal on req: the same bytes, or
// the same error.
func appendDiff(req any) string {
	want, werr := json.Marshal(req)
	got, err := appendRequest(nil, req)
	switch {
	case (err != nil) != (werr != nil):
		return fmt.Sprintf("error %v, json.Marshal's %v", err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			return fmt.Sprintf("error %q, json.Marshal's %q", err, werr)
		}
	case !bytes.Equal(got, want):
		return fmt.Sprintf("appended\n%s\njson.Marshal\n%s", got, want)
	}
	return ""
}

// specialFloats are the values where encoding/json's format turns: signed
// zeros, subnormals, the exponent-form bounds 1e-6 and 1e21 on both sides,
// the largest values, and the ones it refuses.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
	math.Nextafter(1e-6, 0), 9.999999e-7, 1e20, 1e21, math.Nextafter(1e21, 0), -1e21,
	123456789e-15, 1e-10, 1.5e300, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 100,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// escapedNames are workload and node names json.Marshal escapes, or passes
// through at the edges of its plain set.
var escapedNames = []string{
	"", "wordcount", "10.0.0.2", `a"b`, `a\b`, "<tag>", "a&b", "tab\there", "\x01", "\x7f",
	"wörk", "\xff\xfe", "line\u2028sep\u2029", "\U0001F600", " ~",
}

// randomSamples draws n samples of up to 27 metrics, every value from raw
// bits or specialFloats, with each Valid and CPIValid shape: nil, empty and
// set.
func randomSamples(r *rand.Rand, n int, finite bool) []server.Sample {
	draw := func() float64 {
		for {
			v := math.Float64frombits(r.Uint64())
			if r.Intn(4) == 0 {
				v = specialFloats[r.Intn(len(specialFloats))]
			}
			if !finite || !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	samples := make([]server.Sample, n)
	for i := range samples {
		s := &samples[i]
		if k := r.Intn(28); k > 0 || r.Intn(2) == 0 {
			s.Metrics = make([]float64, k)
		}
		for m := range s.Metrics {
			s.Metrics[m] = draw()
		}
		s.CPI = draw()
		switch r.Intn(3) {
		case 1:
			s.Valid = []bool{}
		case 2:
			s.Valid = make([]bool, 1+r.Intn(27))
			for m := range s.Valid {
				s.Valid[m] = r.Intn(2) == 0
			}
		}
		if k := r.Intn(3); k > 0 {
			ok := k == 1
			s.CPIValid = &ok
		}
	}
	return samples
}

// TestAppendRequestMatchesMarshal holds appendRequest to json.Marshal for
// ingest and diagnose bodies over random samples, names needing escapes,
// nil and empty batches and both wait flags, NaN and ±Inf refusals among
// them.
func TestAppendRequestMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		var samples []server.Sample
		switch i % 5 {
		case 0:
		case 1:
			samples = []server.Sample{}
		default:
			samples = randomSamples(r, 1+r.Intn(4), i%5 != 4)
		}
		w, n := escapedNames[r.Intn(len(escapedNames))], escapedNames[r.Intn(len(escapedNames))]
		for _, req := range []any{
			server.IngestRequest{Workload: w, Node: n, Samples: samples},
			server.DiagnoseRequest{Workload: w, Node: n, Samples: samples, Wait: i%2 == 0},
		} {
			if diff := appendDiff(req); diff != "" {
				t.Fatalf("%T #%d: %s", req, i, diff)
			}
		}
	}
	for _, v := range specialFloats {
		req := server.IngestRequest{Workload: "w", Node: "n", Samples: []server.Sample{{Metrics: []float64{v}, CPI: -v}}}
		if diff := appendDiff(req); diff != "" {
			t.Errorf("%v: %s", v, diff)
		}
	}
}

// TestAppendRequestAllocs pins the send path's encoder: an ingest or a
// diagnose body of 24 masked samples appended into a warm buffer allocates
// nothing.
func TestAppendRequestAllocs(t *testing.T) {
	samples := SynthBatch(stats.NewRNG(5), LoadConfig{}, 24)
	ok := false
	for i := range samples {
		samples[i].Valid = make([]bool, len(samples[i].Metrics))
		samples[i].CPIValid = &ok
	}
	buf := make([]byte, 0, 64<<10)
	for _, req := range []any{
		server.IngestRequest{Workload: "wordcount", Node: "10.0.0.2", Samples: samples},
		server.DiagnoseRequest{Workload: "wordcount", Node: "10.0.0.2", Samples: samples, Wait: true},
	} {
		if got := testing.AllocsPerRun(50, func() {
			var err error
			if buf, err = appendRequest(buf[:0], req); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("appending a %T allocates %v times, want 0", req, got)
		}
	}
}

// TestBodyPoolDropsLargeBuffers checks that a request buffer a long batch
// grew past maxPooled is left to the collector, not pooled for every later
// request to keep alive.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	big := make([]byte, 0, 2*maxPooled)
	putBody(&big)
	for i := 0; i < 4; i++ {
		if bufp := bodyPool.Get().(*[]byte); cap(*bufp) > maxPooled {
			t.Fatalf("the pool handed back a %d-byte buffer, want at most %d", cap(*bufp), maxPooled)
		}
	}
}

// FuzzAppendRequest holds appendRequest to json.Marshal on ingest and
// diagnose bodies built from arbitrary bytes: names that need escapes (or
// are not UTF-8), and samples whose every value comes from eight raw bytes,
// so the mutator reaches −0, subnormals, both exponent-form bounds, NaN and
// ±Inf; shape picks the metric count, the masks and the wait flag.
func FuzzAppendRequest(f *testing.F) {
	bits := func(vs ...float64) []byte {
		raw := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	f.Add("wordcount", "10.0.0.2", bits(0.25, 1.5, 3, 0.1), uint8(0x30))
	f.Add(`a"<&>\`, " \xff", bits(math.Copysign(0, -1), 5e-324, 1e-7, 1e21), uint8(0x1f))
	f.Add("w", "n", bits(1e-6, math.Nextafter(1e21, 0), 1e20, -2.5e-300), uint8(0x06))
	f.Add("w", "n", bits(math.NaN(), 1), uint8(0x00))
	f.Add("w", "n", bits(1, math.Inf(-1)), uint8(0x41))
	f.Add("", "", []byte{}, uint8(0x08))
	f.Fuzz(func(t *testing.T, workload, node string, raw []byte, shape uint8) {
		var samples []server.Sample
		if shape&0x08 == 0 {
			samples = []server.Sample{}
		}
		width := 1 + int(shape>>4)%4 // metrics per sample; one more value is its CPI
		for i := 0; (i+width+1)*8 <= len(raw); i += width + 1 {
			v := make([]float64, width+1)
			for k := range v {
				v[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(i+k):]))
			}
			s := server.Sample{Metrics: v[:width], CPI: v[width]}
			if shape&0x02 != 0 {
				s.Valid = make([]bool, width)
				for k := range s.Valid {
					s.Valid[k] = raw[8*(i+k)]&1 == 0
				}
			}
			if shape&0x04 != 0 {
				ok := raw[8*i]&2 == 0
				s.CPIValid = &ok
			}
			samples = append(samples, s)
		}
		for _, req := range []any{
			server.IngestRequest{Workload: workload, Node: node, Samples: samples},
			server.DiagnoseRequest{Workload: workload, Node: node, Samples: samples, Wait: shape&1 != 0},
		} {
			if diff := appendDiff(req); diff != "" {
				t.Fatalf("%T: %s", req, diff)
			}
		}
	})
}

var sinkBody []byte

// BenchmarkAppendRequest times one 24-sample ingest body appended into a
// warm buffer, and through the json.Marshal it replaced.
func BenchmarkAppendRequest(b *testing.B) {
	req := server.IngestRequest{Workload: "wordcount", Node: "10.0.0.2", Samples: SynthBatch(stats.NewRNG(5), LoadConfig{}, 24)}
	b.Run("appender", func(b *testing.B) {
		buf := make([]byte, 0, 64<<10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendRequest(buf[:0], req)
		}
		sinkBody = buf
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBody, _ = json.Marshal(req)
		}
	})
}
