package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/stats"
)

// LoadConfig shapes a load-generator run against one invarnetd instance.
type LoadConfig struct {
	// Streams is the number of concurrent (workload, node) ingest streams
	// (default 8, the acceptance floor).
	Streams int
	// BatchLen is the samples per ingest batch (default 10).
	BatchLen int
	// Batches per stream; 0 means run until ctx is cancelled.
	Batches int
	// DiagnoseEvery issues one async diagnose per stream every N batches
	// (0 disables).
	DiagnoseEvery int
	// Seed makes the synthetic telemetry reproducible (default 1).
	Seed int64
	// Coupled is how many leading metrics ride one latent factor (default 8,
	// matching the training-side generators).
	Coupled int
	// Binary switches ingest to the compact frame encoding
	// (Client.IngestFrame) instead of JSON — the wire-speed data plane.
	// Diagnose traffic stays JSON either way (it is control-plane rate).
	Binary bool
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Streams <= 0 {
		c.Streams = 8
	}
	if c.BatchLen <= 0 {
		c.BatchLen = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Coupled <= 0 {
		c.Coupled = 8
	}
	return c
}

// loadWorkloads are the workload types load streams alternate between.
var loadWorkloads = [...]string{"wordcount", "sort"}

// StreamID returns the (workload, node) identity of load stream i: stream i
// runs loadWorkloads[i%len] at node 10.0.<i/len>.<i%250+2>. It is the mapping
// the generator uses, so tests and trainers can pre-train exactly the
// contexts the load will hit.
func (LoadConfig) StreamID(i int) (workload, node string) {
	workload = loadWorkloads[i%len(loadWorkloads)]
	node = fmt.Sprintf("10.0.%d.%d", i/len(loadWorkloads), i%250+2)
	return workload, node
}

// LoadReport aggregates one load-generator run. Sent, Accepted and Shed count
// ingest batches only, so on an error-free run that finished its batches
// Accepted + Shed == Sent; diagnose requests have their own pair.
type LoadReport struct {
	Sent         int64 // batches attempted
	Accepted     int64 // batches accepted (202)
	Shed         int64 // batches refused with 429 (backpressure working)
	Errors       int64 // transport errors or unexpected statuses
	Samples      int64 // samples accepted
	Diagnoses    int64 // async diagnoses issued
	DiagnoseShed int64 // diagnose requests refused with 429
}

// SynthBatch generates one batch of coupled synthetic samples: the leading
// Coupled metrics ride a shared latent factor (so MIC training finds
// invariants), the rest are noise, and CPI tracks the factor.
func SynthBatch(rng *stats.RNG, cfg LoadConfig, n int) []server.Sample {
	cfg = cfg.withDefaults()
	out := make([]server.Sample, n)
	for t := 0; t < n; t++ {
		latent := rng.Float64()
		row := make([]float64, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			if m < cfg.Coupled {
				row[m] = float64(m+1)*latent + 0.1 + rng.Normal(0, 0.02)
			} else {
				row[m] = rng.Float64()
			}
		}
		out[t] = server.Sample{Metrics: row, CPI: 1.0 + 0.3*latent + rng.Normal(0, 0.02)}
	}
	return out
}

// Shed-backoff shape: capped exponential with jitter, floored by the
// server's Retry-After hint. The base is small enough that a single
// spurious 429 barely dents throughput; repeated sheds double toward the
// cap so a saturated server sees the load step back instead of hammering
// the admission gate.
const (
	shedBackoffBase = 50 * time.Millisecond
	shedBackoffCap  = 5 * time.Second
)

// shedBackoff is one stream's 429 pacing state.
type shedBackoff struct {
	rng         *stats.RNG
	consecutive int
}

// delay returns how long to wait after one more shed response. The
// exponential term is jittered across its lower half (decorrelating the
// streams); the server's Retry-After is a floor, never jittered below.
func (b *shedBackoff) delay(err error) time.Duration {
	shift := b.consecutive
	if shift > 6 {
		shift = 6 // 50ms << 6 = 3.2s, next to the cap
	}
	b.consecutive++
	d := shedBackoffBase << shift
	if d > shedBackoffCap {
		d = shedBackoffCap
	}
	d = d/2 + time.Duration(b.rng.Float64()*float64(d/2))
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	if d > shedBackoffCap {
		d = shedBackoffCap
	}
	return d
}

// reset clears the streak on any accepted request.
func (b *shedBackoff) reset() { b.consecutive = 0 }

// RunLoad drives cfg.Streams concurrent ingest streams against the server at
// c until every stream has sent its batches or ctx is cancelled. Shed requests
// (429) are counted and honoured: the stream backs off with capped,
// jittered exponential delays floored by the server's Retry-After hint
// before sending anything further — the report's Shed and DiagnoseShed columns
// are the backpressure observability, and at full speed nonzero values are
// expected.
func (c *Client) RunLoad(ctx context.Context, cfg LoadConfig) *LoadReport {
	cfg = cfg.withDefaults()
	rep := &LoadReport{}

	var wg sync.WaitGroup
	root := stats.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Streams; i++ {
		workload, node := cfg.StreamID(i)
		rng := root.Fork(int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			bo := shedBackoff{rng: rng.Fork(-1)}
			for b := 0; cfg.Batches == 0 || b < cfg.Batches; b++ {
				if ctx.Err() != nil {
					return
				}
				batch := SynthBatch(rng, cfg, cfg.BatchLen)
				atomic.AddInt64(&rep.Sent, 1)
				var resp *server.IngestResponse
				var err error
				if cfg.Binary {
					resp, err = c.IngestFrame(ctx, workload, node, batch)
				} else {
					resp, err = c.Ingest(ctx, workload, node, batch)
				}
				switch {
				case err == nil:
					atomic.AddInt64(&rep.Accepted, 1)
					atomic.AddInt64(&rep.Samples, int64(resp.Accepted))
					bo.reset()
				case IsShed(err):
					atomic.AddInt64(&rep.Shed, 1)
					if c.pause(ctx, bo.delay(err)) != nil {
						return
					}
				case ctx.Err() != nil:
					return
				default:
					atomic.AddInt64(&rep.Errors, 1)
				}
				if cfg.DiagnoseEvery > 0 && (b+1)%cfg.DiagnoseEvery == 0 {
					_, err := c.Diagnose(ctx, workload, node, nil, false)
					switch {
					case err == nil:
						atomic.AddInt64(&rep.Diagnoses, 1)
						bo.reset()
					case IsShed(err):
						atomic.AddInt64(&rep.DiagnoseShed, 1)
						if c.pause(ctx, bo.delay(err)) != nil {
							return
						}
					case ctx.Err() != nil:
						return
					default:
						atomic.AddInt64(&rep.Errors, 1)
					}
				}
			}
		}()
	}
	wg.Wait()
	return rep
}
