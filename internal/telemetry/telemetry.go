// Package telemetry is the fault-tolerant collection layer between the raw
// metric/CPI sources and the diagnosis pipeline.
//
// The paper's prototype consumes clean collectl streams, but InvarNet-X's
// own premise — diagnosing faulty clusters — makes the telemetry the first
// casualty of the faults it exists to diagnose: a net-drop or suspend fault
// also drops, delays and corrupts the metric samples. This package models
// exactly that failure surface and keeps the online path deterministic and
// analysable under it:
//
//   - an injectable FaultModel: per-reading drops, corrupt (NaN/garbage)
//     values, late/out-of-order batches, and full per-node agent outages;
//   - per-reading retry with exponential backoff and jitter, so transient
//     drops are recovered at a bounded simulated latency cost;
//   - gap-filling policies for unrecovered readings: hold-last,
//     linear interpolation, or an explicit NaN mask — every synthesised
//     value is flagged invalid in the trace's validity mask so that the
//     invariant layer can report affected pairs as unknown rather than
//     violated;
//   - per-node health status (healthy / degraded / down) derived from the
//     observed loss rate, for operators and for confidence weighting.
//
// The collector is transport-agnostic: callers push raw readings through
// Ingest (or replay a whole clean trace through Degrade) and receive both
// the live view a streaming consumer would have seen and a trace whose
// masks record which samples are genuine.
package telemetry

import (
	"fmt"
	"strconv"
	"strings"
)

// GapPolicy selects how unrecovered readings are filled in the trace.
type GapPolicy int

const (
	// Mask stores NaN and marks the sample invalid — the honest policy;
	// downstream layers must handle the gap (and this repository's do).
	Mask GapPolicy = iota
	// HoldLast repeats the last genuine reading. The value is still
	// marked invalid: it is a guess, not an observation.
	HoldLast
	// Interpolate fills a finished gap linearly between the genuine
	// readings on either side (trailing gaps fall back to hold-last).
	// Filled values are marked invalid.
	Interpolate
)

func (p GapPolicy) String() string {
	switch p {
	case Mask:
		return "mask"
	case HoldLast:
		return "hold"
	case Interpolate:
		return "interp"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseGapPolicy inverts GapPolicy.String.
func ParseGapPolicy(s string) (GapPolicy, error) {
	switch s {
	case "mask":
		return Mask, nil
	case "hold", "hold-last":
		return HoldLast, nil
	case "interp", "interpolate":
		return Interpolate, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown gap policy %q (mask|hold|interp)", s)
	}
}

// Window is a half-open tick interval [Start, End).
type Window struct {
	Start, End int
}

// Contains reports whether tick lies in the window.
func (w Window) Contains(tick int) bool { return tick >= w.Start && tick < w.End }

// FaultModel describes the telemetry faults to inject. The zero value
// injects nothing (a transparent collector).
type FaultModel struct {
	// DropRate is the per-reading probability that a metric sample is
	// lost at the source before any retry.
	DropRate float64
	// CorruptRate is the per-reading probability that a sample arrives
	// corrupt. Most corruption is non-finite garbage that input
	// validation catches (and retries); a SpikeFraction of it slips
	// through as a finite but absurd value.
	CorruptRate float64
	// SpikeFraction is the fraction of corrupt readings that pass
	// validation as finite garbage spikes (default 0 — all corruption is
	// caught as NaN).
	SpikeFraction float64
	// BatchDelayRate is the probability that a whole per-node tick batch
	// arrives late, by 1..MaxDelayTicks ticks. Late batches reach the
	// trace retroactively (out-of-order delivery); the live stream sees a
	// gap at the original tick.
	BatchDelayRate float64
	// MaxDelayTicks bounds batch lateness (default 3 when delays are on).
	MaxDelayTicks int
	// Outages lists full agent outages per node IP: during a window the
	// node's whole batch is lost with no retry (the agent is down).
	Outages map[string][]Window
}

// outage reports whether node ip is inside an outage window at tick.
func (f *FaultModel) outage(ip string, tick int) bool {
	for _, w := range f.Outages[ip] {
		if w.Contains(tick) {
			return true
		}
	}
	return false
}

// The per-reading retry loop. Retries model re-reading a counter that failed
// to arrive: each attempt succeeds independently, and the backoff delays
// accumulate as simulated collection latency.
const (
	retryMax         = 2    // retry attempts per lost reading
	retryBaseDelayMS = 50.0 // first backoff delay; attempt k waits base·2^(k-1)
	retryMaxDelayMS  = 1000 // cap on a single backoff delay
	retryJitter      = 0.2  // each delay spread uniformly by ± this fraction
)

// Config assembles a collector.
type Config struct {
	Faults FaultModel
	Policy GapPolicy
}

// ParseFaultSpec parses the CLI fault specification used by
// `invarctl diagnose -telemetry-faults`. The spec is a comma-separated
// key=value list:
//
//	drop=0.2            per-reading drop probability
//	corrupt=0.05        per-reading corruption probability
//	spike=0.25          fraction of corruption passing validation
//	delay=0.1           per-batch lateness probability
//	maxdelay=3          maximum batch lateness in ticks
//	outage=IP:S-E       agent outage on node IP during ticks [S,E)
//	                    (repeatable; ":S-E" optional, default the whole run)
//	policy=mask         gap policy: mask | hold | interp
//
// Example: "drop=0.2,outage=10.0.0.3:10-40,policy=hold".
func ParseFaultSpec(spec string) (Config, error) {
	cfg := Config{}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, fmt.Errorf("telemetry: bad spec field %q (want key=value)", field)
		}
		switch key {
		case "drop", "corrupt", "spike", "delay":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return cfg, fmt.Errorf("telemetry: %s=%q is not a probability", key, val)
			}
			switch key {
			case "drop":
				cfg.Faults.DropRate = f
			case "corrupt":
				cfg.Faults.CorruptRate = f
			case "spike":
				cfg.Faults.SpikeFraction = f
			case "delay":
				cfg.Faults.BatchDelayRate = f
			}
		case "maxdelay":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("telemetry: maxdelay=%q is not a positive tick count", val)
			}
			cfg.Faults.MaxDelayTicks = n
		case "outage":
			ip, win, err := parseOutage(val)
			if err != nil {
				return cfg, err
			}
			if cfg.Faults.Outages == nil {
				cfg.Faults.Outages = make(map[string][]Window)
			}
			cfg.Faults.Outages[ip] = append(cfg.Faults.Outages[ip], win)
		case "policy":
			p, err := ParseGapPolicy(val)
			if err != nil {
				return cfg, err
			}
			cfg.Policy = p
		default:
			return cfg, fmt.Errorf("telemetry: unknown spec key %q", key)
		}
	}
	return cfg, nil
}

// parseOutage parses "IP" or "IP:S-E".
func parseOutage(val string) (string, Window, error) {
	ip, rng, ok := strings.Cut(val, ":")
	if ip == "" {
		return "", Window{}, fmt.Errorf("telemetry: outage %q missing node IP", val)
	}
	if !ok {
		// Whole-run outage: an effectively unbounded window.
		return ip, Window{Start: 0, End: 1 << 30}, nil
	}
	lo, hi, ok := strings.Cut(rng, "-")
	if !ok {
		return "", Window{}, fmt.Errorf("telemetry: outage window %q (want S-E)", rng)
	}
	s, err1 := strconv.Atoi(lo)
	e, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || s < 0 || e <= s {
		return "", Window{}, fmt.Errorf("telemetry: outage window %q invalid", rng)
	}
	return ip, Window{Start: s, End: e}, nil
}
