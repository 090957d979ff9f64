package telemetry

import (
	"fmt"
	"math"

	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// Collector pushes raw per-node readings through the fault model, the
// retry loop and the gap-filling policy, producing traces whose validity
// masks record which samples are genuine observations.
//
// One Collector serves one run. Ingest must be called once per node per
// tick, always with the same destination trace for a given node; the
// collector owns that trace's growth (indices are tick-aligned).
type Collector struct {
	cfg   Config
	rng   *stats.RNG
	nodes map[string]*nodeState
}

// Batch is the live view of one node's tick: what a streaming consumer
// (the online monitor) sees at the moment the tick closes. Readings a late
// batch will deliver retroactively are invalid here — they have not
// arrived yet.
type Batch struct {
	Values   []float64
	Valid    []bool
	CPI      float64
	CPIValid bool
}

// delayedBatch is a tick batch in flight: read at Tick, arriving at
// Release.
type delayedBatch struct {
	tick     int
	release  int
	values   []float64
	valid    []bool
	cpi      float64
	cpiValid bool
}

// nodeState is the per-node stream state.
type nodeState struct {
	health  NodeHealth
	rng     *stats.RNG
	tick    int
	lastVal []float64 // last genuine streamed value per metric
	lastIdx []int     // its tick index, -1 before the first
	cpiLast float64
	cpiIdx  int
	pending []delayedBatch
}

// New builds a collector; rng drives every fault and jitter draw.
func New(cfg Config, rng *stats.RNG) *Collector {
	if cfg.Faults.BatchDelayRate > 0 && cfg.Faults.MaxDelayTicks <= 0 {
		cfg.Faults.MaxDelayTicks = 3
	}
	return &Collector{cfg: cfg, rng: rng, nodes: make(map[string]*nodeState)}
}

// node returns (creating if needed) the state of node ip. Each node forks
// its own RNG stream keyed by the IP so that adding a node to a run does
// not perturb the faults drawn by the others.
func (c *Collector) node(ip string) *nodeState {
	st, ok := c.nodes[ip]
	if !ok {
		h := int64(1469598103934665603)
		for _, b := range []byte(ip) {
			h ^= int64(b)
			h *= 1099511628211
		}
		st = &nodeState{
			health:  NodeHealth{IP: ip},
			rng:     c.rng.Fork(h),
			lastVal: make([]float64, metrics.Count),
			lastIdx: make([]int, metrics.Count),
			cpiIdx:  -1,
		}
		for m := range st.lastIdx {
			st.lastIdx[m] = -1
			st.lastVal[m] = math.NaN()
		}
		c.nodes[ip] = st
	}
	return st
}

// Health returns the health record of node ip (zero record if unseen).
func (c *Collector) Health(ip string) NodeHealth {
	if st, ok := c.nodes[ip]; ok {
		return st.health
	}
	return NodeHealth{IP: ip}
}

// Ingest pushes one raw reading batch for node ip through the pipeline and
// appends the resulting (possibly gap-filled) samples to tr. It returns
// the live view of the tick.
func (c *Collector) Ingest(ip string, sample []float64, cpi float64, tr *metrics.Trace) (Batch, error) {
	if len(sample) != metrics.Count {
		return Batch{}, fmt.Errorf("telemetry: sample has %d entries, want %d", len(sample), metrics.Count)
	}
	st := c.node(ip)
	if tr.Ticks != st.tick {
		return Batch{}, fmt.Errorf("telemetry: trace for %s has %d ticks, expected %d (one Ingest per node per tick, one trace per node)", ip, tr.Ticks, st.tick)
	}
	tick := st.tick
	st.tick++

	c.deliverPending(st, tick, tr)

	// Full agent outage: nothing arrives and nothing can be retried.
	if c.cfg.Faults.outage(ip, tick) {
		st.health.note(1, true)
		live := c.appendGapBatch(st, tr, tick)
		return live, nil
	}

	values, valid, lost := c.applyReadingFaults(st, sample)
	cpiVal, cpiOK := c.applyOneReadingFault(st, cpi)
	if !cpiOK {
		lost++
	}
	st.health.note(float64(lost)/float64(metrics.Count+1), false)

	// Whole-batch lateness: queue for retroactive delivery; the live
	// stream sees a gap at this tick.
	f := &c.cfg.Faults
	if f.BatchDelayRate > 0 && st.rng.Bernoulli(f.BatchDelayRate) {
		st.health.Late++
		st.pending = append(st.pending, delayedBatch{
			tick:    tick,
			release: tick + 1 + st.rng.Intn(f.MaxDelayTicks),
			values:  values, valid: valid, cpi: cpiVal, cpiValid: cpiOK,
		})
		live := c.appendGapBatch(st, tr, tick)
		return live, nil
	}

	return c.appendBatch(st, tr, tick, values, valid, cpiVal, cpiOK)
}

// Flush delivers every still-pending late batch for node ip into tr,
// regardless of release tick. Call it when the run ends.
func (c *Collector) Flush(ip string, tr *metrics.Trace) {
	st, ok := c.nodes[ip]
	if !ok {
		return
	}
	c.deliverPending(st, 1<<30, tr)
}

// deliverPending patches batches whose release tick has arrived into their
// original positions in the trace — late data is still genuine data once
// it lands, so the offline diagnosis window gets it even though the live
// stream saw a gap.
func (c *Collector) deliverPending(st *nodeState, tick int, tr *metrics.Trace) {
	kept := st.pending[:0]
	for _, b := range st.pending {
		if b.release > tick {
			kept = append(kept, b)
			continue
		}
		for m := range b.values {
			if b.valid[m] && b.tick < len(tr.Rows[m]) {
				tr.Rows[m][b.tick] = b.values[m]
				tr.Valid[m][b.tick] = true
			}
		}
		if b.cpiValid && b.tick < len(tr.CPI) {
			tr.CPI[b.tick] = b.cpi
			tr.CPIValid[b.tick] = true
		}
	}
	st.pending = kept
}

// applyReadingFaults runs every metric reading through corruption, drop
// and the retry loop. It returns the surviving values, their validity, and
// the count of unrecovered readings.
func (c *Collector) applyReadingFaults(st *nodeState, sample []float64) (values []float64, valid []bool, lost int) {
	values = make([]float64, metrics.Count)
	valid = make([]bool, metrics.Count)
	for m, v := range sample {
		val, ok := c.applyOneReadingFault(st, v)
		values[m] = val
		valid[m] = ok
		if !ok {
			lost++
		}
	}
	return values, valid, lost
}

// applyOneReadingFault passes a single reading through the fault model:
// corruption (mostly caught by validation, occasionally slipping through
// as a finite spike), source drops, and the retry loop for anything
// detected as missing or bad.
func (c *Collector) applyOneReadingFault(st *nodeState, v float64) (float64, bool) {
	f := &c.cfg.Faults
	switch {
	case f.CorruptRate > 0 && st.rng.Bernoulli(f.CorruptRate):
		st.health.Corrupt++
		if f.SpikeFraction > 0 && st.rng.Bernoulli(f.SpikeFraction) {
			// Finite garbage that passes validation: the reading is
			// *believed*, which is exactly why downstream layers need
			// their own non-finite and robustness guards.
			return (1 + math.Abs(v)) * 1e6, true
		}
		// Non-finite garbage: validation catches it; re-read below.
	case f.DropRate > 0 && st.rng.Bernoulli(f.DropRate):
		st.health.Dropped++
		// Lost at source; re-read below.
	default:
		return v, true
	}
	if c.retry(st) {
		st.health.Recovered++
		return v, true
	}
	return math.NaN(), false
}

// retry re-reads a failed reading with exponential backoff and jitter; it
// reports whether any attempt succeeded. The simulated latency of every
// backoff wait is accounted against the node.
func (c *Collector) retry(st *nodeState) bool {
	failP := c.cfg.Faults.DropRate + c.cfg.Faults.CorruptRate
	if failP > 1 {
		failP = 1
	}
	delay := retryBaseDelayMS
	for attempt := 0; attempt < retryMax; attempt++ {
		d := min(delay, retryMaxDelayMS)
		d *= 1 + retryJitter*(2*st.rng.Float64()-1)
		st.health.Retries++
		st.health.RetryLatencyMS += d
		if !st.rng.Bernoulli(failP) {
			return true
		}
		delay *= 2
	}
	return false
}

// appendGapBatch appends an all-missing tick (outage or delayed batch) per
// the gap policy.
func (c *Collector) appendGapBatch(st *nodeState, tr *metrics.Trace, tick int) Batch {
	values := make([]float64, metrics.Count)
	valid := make([]bool, metrics.Count)
	for m := range values {
		values[m] = math.NaN()
	}
	live, err := c.appendBatch(st, tr, tick, values, valid, math.NaN(), false)
	if err != nil {
		// Unreachable: widths are fixed by construction.
		panic(err)
	}
	return live
}

// appendBatch fills unrecovered readings per the gap policy, appends the
// tick to the trace, and retro-interpolates any gap a fresh genuine
// reading just closed.
func (c *Collector) appendBatch(st *nodeState, tr *metrics.Trace, tick int, values []float64, valid []bool, cpi float64, cpiOK bool) (Batch, error) {
	out := make([]float64, metrics.Count)
	for m := range values {
		if valid[m] {
			out[m] = values[m]
			continue
		}
		switch c.cfg.Policy {
		case HoldLast, Interpolate:
			out[m] = st.lastVal[m] // NaN before the first genuine reading
		default:
			out[m] = math.NaN()
		}
	}
	cpiOut := cpi
	if !cpiOK {
		switch c.cfg.Policy {
		case HoldLast, Interpolate:
			if st.cpiIdx >= 0 {
				cpiOut = st.cpiLast
			} else {
				cpiOut = math.NaN()
			}
		default:
			cpiOut = math.NaN()
		}
	}
	if err := tr.AddMasked(out, valid, cpiOut, cpiOK); err != nil {
		return Batch{}, err
	}
	// A genuine reading closes any open gap; under Interpolate the gap is
	// re-filled linearly between its genuine endpoints.
	for m := range values {
		if !valid[m] {
			continue
		}
		if c.cfg.Policy == Interpolate {
			interpolateGap(tr.Rows[m], tr.Valid[m], st.lastIdx[m], tick, st.lastVal[m], values[m])
		}
		st.lastVal[m] = values[m]
		st.lastIdx[m] = tick
	}
	if cpiOK {
		if c.cfg.Policy == Interpolate {
			interpolateGap(tr.CPI, tr.CPIValid, st.cpiIdx, tick, st.cpiLast, cpi)
		}
		st.cpiLast = cpi
		st.cpiIdx = tick
	}
	return Batch{Values: out, Valid: valid, CPI: cpiOut, CPIValid: cpiOK}, nil
}

// interpolateGap rewrites series[lo+1:hi] linearly between the genuine
// readings at lo and hi. lo < 0 (no earlier genuine reading) leaves the
// gap as appended. Entries the validity mask marks genuine — a late batch
// may already have patched inside the gap — are never overwritten.
func interpolateGap(series []float64, valid []bool, lo, hi int, loVal, hiVal float64) {
	if lo < 0 || hi-lo < 2 {
		return
	}
	span := float64(hi - lo)
	for t := lo + 1; t < hi; t++ {
		if valid[t] {
			continue
		}
		frac := float64(t-lo) / span
		series[t] = loVal + frac*(hiVal-loVal)
	}
}

// Degrade replays a clean trace through the collector: the returned trace
// carries the degraded samples and validity masks, and liveCPI is the CPI
// stream an online monitor would have seen tick by tick (NaN for gaps
// under the Mask policy). Pending late batches are flushed at the end, so
// the returned trace holds everything that eventually arrived.
func (c *Collector) Degrade(tr *metrics.Trace) (degraded *metrics.Trace, liveCPI []float64, err error) {
	out := metrics.NewTrace(tr.NodeIP, tr.Context)
	liveCPI = make([]float64, 0, tr.Len())
	sample := make([]float64, metrics.Count)
	for t := 0; t < tr.Len(); t++ {
		for m := range sample {
			sample[m] = tr.Rows[m][t]
		}
		live, err := c.Ingest(tr.NodeIP, sample, tr.CPI[t], out)
		if err != nil {
			return nil, nil, err
		}
		liveCPI = append(liveCPI, live.CPI)
	}
	c.Flush(tr.NodeIP, out)
	return out, liveCPI, nil
}
