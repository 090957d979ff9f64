// Package telemetry models the collection agent as a lossy sender: it turns a
// clean trace into the wire samples an agent with a faulty link would send.
//
// The paper's prototype consumes clean collectl streams, but InvarNet-X's
// own premise — diagnosing faulty clusters — makes the telemetry the first
// casualty of the faults it exists to diagnose: a net-drop or suspend fault
// also drops and corrupts the metric samples. The FaultModel injects exactly
// that: per-reading drops and corruption (a fraction of it slipping through
// as finite spikes), a short retry loop, and full per-node agent outages.
//
// There is one gap model, and it is the daemon's. A reading the agent lost
// goes out as placeholder 0 with its validity flag cleared, and
// server.TraceFromSamples — the ingest path of invarnetd — turns it into NaN
// plus an invalid flag. A spike goes out as a valid value: the agent believes
// it, so downstream layers need their own robustness guards.
package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/stats"
)

// FaultModel describes the telemetry faults to inject. The zero value
// injects nothing.
type FaultModel struct {
	// DropRate is the per-reading probability that a sample is lost at the
	// source before any retry.
	DropRate float64
	// CorruptRate is the per-reading probability that a sample arrives
	// corrupt. Most corruption is non-finite garbage that the agent's
	// validation catches (and retries); a SpikeFraction of it slips
	// through as a finite but absurd value.
	CorruptRate float64
	// SpikeFraction is the fraction of corrupt readings that pass
	// validation as finite garbage spikes (default 0 — all corruption is
	// caught).
	SpikeFraction float64
	// Outages lists full agent outages per node IP: during a window the
	// node's whole tick is lost with no retry (the agent is down).
	Outages map[string][]faults.Window
}

// retryMax is the number of re-reads of a lost or caught-corrupt reading;
// each attempt succeeds independently.
const retryMax = 2

// Samples returns the wire samples a lossy agent on tr's node sends for the
// clean trace tr, one per tick. Every draw comes from rng forked by the FNV
// hash of the node IP, so adding a node to a run does not perturb the faults
// drawn for the others; an outage tick draws nothing.
func (f *FaultModel) Samples(tr *metrics.Trace, rng *stats.RNG) []server.Sample {
	h := int64(1469598103934665603)
	for _, b := range []byte(tr.NodeIP) {
		h ^= int64(b)
		h *= 1099511628211
	}
	node := rng.Fork(h)
	out := make([]server.Sample, tr.Len())
	for t := range out {
		s := server.Sample{Metrics: make([]float64, len(tr.Rows)), Valid: make([]bool, len(tr.Rows))}
		cpiOK := false
		if !f.outage(tr.NodeIP, t) {
			for m := range tr.Rows {
				s.Metrics[m], s.Valid[m] = f.read(node, tr.Rows[m][t])
			}
			s.CPI, cpiOK = f.read(node, tr.CPI[t])
		}
		s.CPIValid = &cpiOK
		out[t] = s
	}
	return out
}

// outage reports whether node ip is inside an outage window at tick.
func (f *FaultModel) outage(ip string, tick int) bool {
	for _, w := range f.Outages[ip] {
		if w.Active(tick) {
			return true
		}
	}
	return false
}

// read passes one reading through the fault model: the corruption draw, then
// the drop draw, then up to retryMax re-reads of anything lost or caught. An
// unrecovered reading is placeholder 0, flagged invalid.
func (f *FaultModel) read(rng *stats.RNG, v float64) (float64, bool) {
	switch {
	case f.CorruptRate > 0 && rng.Bernoulli(f.CorruptRate):
		if f.SpikeFraction > 0 && rng.Bernoulli(f.SpikeFraction) {
			return (1 + math.Abs(v)) * 1e6, true
		}
		// Non-finite garbage the agent's validation catches: re-read below.
	case f.DropRate > 0 && rng.Bernoulli(f.DropRate):
		// Lost at the source: re-read below.
	default:
		return v, true
	}
	failP := min(f.DropRate+f.CorruptRate, 1)
	for range retryMax {
		rng.Float64() // backoff jitter, value unused: dropping the draw would move every seeded loss (TestLossPatternGolden)
		if !rng.Bernoulli(failP) {
			return v, true
		}
	}
	return 0, false
}

// ParseFaultSpec parses the CLI fault specification used by
// `invarctl diagnose -telemetry-faults`. The spec is a comma-separated
// key=value list:
//
//	drop=0.2            per-reading drop probability
//	corrupt=0.05        per-reading corruption probability
//	spike=0.25          fraction of corruption passing validation
//	outage=IP:S-E       agent outage on node IP during ticks [S,E)
//	                    (repeatable; ":S-E" optional, default the whole run)
//
// Example: "drop=0.2,outage=10.0.0.3:10-40".
func ParseFaultSpec(spec string) (FaultModel, error) {
	fm := FaultModel{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fm, fmt.Errorf("telemetry: bad spec field %q (want key=value)", field)
		}
		switch key {
		case "drop", "corrupt", "spike":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p <= 1) {
				return fm, fmt.Errorf("telemetry: %s=%q is not a probability", key, val)
			}
			switch key {
			case "drop":
				fm.DropRate = p
			case "corrupt":
				fm.CorruptRate = p
			case "spike":
				fm.SpikeFraction = p
			}
		case "outage":
			ip, win, err := parseOutage(val)
			if err != nil {
				return fm, err
			}
			if fm.Outages == nil {
				fm.Outages = make(map[string][]faults.Window)
			}
			fm.Outages[ip] = append(fm.Outages[ip], win)
		default:
			return fm, fmt.Errorf("telemetry: unknown spec key %q (drop|corrupt|spike|outage)", key)
		}
	}
	return fm, nil
}

// parseOutage parses "IP" or "IP:S-E".
func parseOutage(val string) (string, faults.Window, error) {
	ip, rng, ok := strings.Cut(val, ":")
	if ip == "" {
		return "", faults.Window{}, fmt.Errorf("telemetry: outage %q missing node IP", val)
	}
	if !ok {
		// Whole-run outage: an effectively unbounded window.
		return ip, faults.Window{Start: 0, End: 1 << 30}, nil
	}
	lo, hi, ok := strings.Cut(rng, "-")
	if !ok {
		return "", faults.Window{}, fmt.Errorf("telemetry: outage window %q (want S-E)", rng)
	}
	s, err1 := strconv.Atoi(lo)
	e, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || s < 0 || e <= s {
		return "", faults.Window{}, fmt.Errorf("telemetry: outage window %q invalid", rng)
	}
	return ip, faults.Window{Start: s, End: e}, nil
}
