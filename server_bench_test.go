// Serving-layer benchmark: the invarnetd HTTP stack end to end — request
// decode, admission, queue scheduling, window maintenance, drift detection
// and periodic synchronous diagnosis — measured through a real TCP socket
// via the typed client, the same path production traffic takes. The json
// and binary sub-benchmarks run the identical workload through the two
// ingest encodings, so their samples/sec ratio is the measured speedup of
// the wire-speed data plane. Both server decoders fill the pooled columnar
// batch in one pass; what is left between them is the text itself: on a
// 24-tick batch the in-process handler costs ≈ 75 µs as JSON (≈ 195 µs
// through encoding/json) against ≈ 6 µs as a frame (median of bench/
// ingest_json traced runs, 2-core Xeon), and the client's json.Marshal
// about as much again. A developer tool, not a gate: the
// steady-state allocation counts are pinned by
// server.TestIngestBatchPathAllocs (frames) and
// server.TestIngestJSONDecodeAllocs (JSON), wall-clock by bench/.
package invarnetx

import (
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/stats"
)

const (
	// benchBatchLen is the samples per ingest batch: large enough that
	// encoding cost dominates the HTTP round trip, the regime the binary
	// path exists for.
	benchBatchLen = 256
	// benchWindowCap is the diagnosis window. Smaller than the batch, so
	// every bulk ingest replaces the window outright — the steady state of
	// a wire-speed feed — and the periodic MIC diagnosis (whose cost scales
	// with the window, identically in both modes) stays a realistic duty
	// cycle instead of the dominant term.
	benchWindowCap = 128
	// benchDiagnoseEvery issues one wait=true diagnosis per this many
	// ingest batches, keeping cause inference in the measured loop at a
	// realistic duty cycle without drowning the ingest signal.
	benchDiagnoseEvery = 256
)

// BenchmarkServerIngestDiagnose drives GOMAXPROCS concurrent clients, each
// ingesting one batch per iteration and running a wait=true diagnosis every
// benchDiagnoseEvery iterations. Shed rounds (429) are retried, so every
// iteration measures completed work.
func BenchmarkServerIngestDiagnose(b *testing.B) {
	for _, mode := range []struct {
		name   string
		binary bool
	}{{"json", false}, {"binary", true}} {
		b.Run(mode.name, func(b *testing.B) {
			benchServerIngestDiagnose(b, mode.binary)
		})
	}
}

func benchServerIngestDiagnose(b *testing.B, binary bool) {
	cfg := server.Config{Core: core.DefaultConfig(), QueueCap: 256, WindowCap: benchWindowCap}
	srv, _, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lcfg := client.LoadConfig{Streams: 8, BatchLen: benchBatchLen, Binary: binary}
	sys := srv.System()
	rng := stats.NewRNG(7)
	for i := 0; i < lcfg.Streams; i++ {
		w, node := lcfg.StreamID(i)
		ctx := core.Context{Workload: w, IP: node}
		var runs []*MetricsTrace
		var cpis [][]float64
		for r := 0; r < 6; r++ {
			batch := client.SynthBatch(rng.Fork(int64(i*100+r)), lcfg, 100)
			tr, err := server.TraceFromSamples(w, node, batch)
			if err != nil {
				b.Fatal(err)
			}
			runs = append(runs, tr)
			cpis = append(cpis, tr.CPI)
		}
		if err := sys.TrainPerformanceModel(ctx, cpis); err != nil {
			b.Fatal(err)
		}
		if err := sys.TrainInvariants(ctx, runs); err != nil {
			b.Fatal(err)
		}
		faulty := client.SynthBatch(rng.Fork(int64(i*100+99)), client.LoadConfig{Coupled: 2}, 40)
		tr, err := server.TraceFromSamples(w, node, faulty)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.BuildSignature(ctx, "bench-fault", tr); err != nil {
			b.Fatal(err)
		}
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Batches are synthesised up front: the timed loop measures the data
	// plane — client encode, transport, server decode, admission, window and
	// monitor maintenance — not the random-trace generator, which would cost
	// the same in both modes and dilute their ratio.
	const benchBatchPool = 32
	batches := make([][]server.Sample, benchBatchPool)
	{
		rng := stats.NewRNG(1000)
		for i := range batches {
			batches[i] = client.SynthBatch(rng, lcfg, lcfg.BatchLen)
		}
	}

	var worker atomic.Int64
	var shed atomic.Int64
	var rounds atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1) - 1
		w, node := lcfg.StreamID(int(id) % lcfg.Streams)
		c := client.New(hs.URL, hs.Client())
		ctx := context.Background()
		next := int(id)
		for pb.Next() {
			batch := batches[next%benchBatchPool]
			next++
			for {
				var err error
				if binary {
					_, err = c.IngestFrame(ctx, w, node, batch)
				} else {
					_, err = c.Ingest(ctx, w, node, batch)
				}
				if err == nil {
					break
				}
				if client.IsShed(err) {
					shed.Add(1)
					continue
				}
				b.Fatal(err)
			}
			if rounds.Add(1)%benchDiagnoseEvery != 0 {
				continue
			}
			for {
				resp, err := c.Diagnose(ctx, w, node, nil, true)
				if err == nil {
					if resp.Status != server.StatusDone {
						b.Fatalf("diagnosis %s: %+v", resp.Status, resp.Report)
					}
					break
				}
				if client.IsShed(err) {
					shed.Add(1)
					continue
				}
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(shed.Load())/float64(b.N), "sheds/op")
	b.ReportMetric(float64(b.N)*benchBatchLen/b.Elapsed().Seconds(), "samples/sec")
}
