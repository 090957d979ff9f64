package main

import (
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/workload"
)

// clients is the number of closed-loop client connections (or offline
// workers) every workload drives: one per core of the two-core reference
// box. Each context is owned by exactly one client, so per-stream order
// holds.
const clients = 2

// queueCap is the server's per-context queue bound in every serving workload.
const queueCap = 256

// setupRepeats is how many times a run performs the program-side set-up; the
// median is reported as setup_s.
const setupRepeats = 3

type kind int

const (
	kindIngest kind = iota
	kindStorm
	kindTrain
	kindPersist
)

// spec is one named workload: what is generated, how the server under test
// is configured, and what one operation is.
type spec struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json
	kind kind
	gen  genSpec

	windowCap  int  // server sliding window, ticks
	frameTicks int  // ticks per ingest frame
	json       bool // ingest through the JSON encoding instead of frames
}

var (
	servingTypes = []workload.Type{workload.Wordcount, workload.Sort}
	offlineTypes = []workload.Type{workload.Wordcount, workload.Sort, workload.Grep, workload.Bayes}
	// batchFaults is the 14-kind fault set of the batch workloads.
	batchFaults = experiments.FaultKindsFor(workload.Wordcount)
	// checkFault supplies the one fault window per context the ingest and
	// persist output checks diagnose.
	checkFault = []faults.Kind{faults.CPUHog}
)

var stormGen = genSpec{types: servingTypes, faults: batchFaults, sigRuns: 2, heldOut: 1}

func stormSpec(name, why string, mod func(*genSpec)) spec {
	gs := stormGen
	if mod != nil {
		mod(&gs)
	}
	// The window matches the 30-tick training windows; a verdict's fault
	// window arrives as 5 frames of 6 ticks.
	return spec{name: name, why: why, kind: kindStorm, gen: gs, windowCap: 30, frameTicks: 6}
}

func ingestSpec(name, why string, json bool) spec {
	return spec{
		name: name, why: why, kind: kindIngest, json: json,
		gen:       genSpec{types: servingTypes, faults: checkFault, heldOut: 1},
		windowCap: 120, frameTicks: 24,
	}
}

// specs lists the workloads in reporting order. Every `why` is at most 200
// characters (BENCHMARK.json's limit).
var specs = []spec{
	ingestSpec("ingest_binary",
		"ops_per_s counts samples, op_ms times 480 ticks to one stream as 20 binary frames: decode, admission, window slide, slider append and monitor work; invariant and signature do none", false),
	ingestSpec("ingest_json",
		"ingest_binary's samples through the JSON encoding: decode and validation dominate, so a slider or monitor gain should barely show and a JSON-path cost shows only here", true),
	stormSpec("storm_clean",
		"op = one verdict; a held-out fault window as 5x6-tick frames then Diagnose(wait) on a 30-tick window: report cache bypassed, slider snapshots, prescreen and exact MIC do the work", nil),
	stormSpec("storm_degraded",
		"op = one verdict; storm_clean with 3% of metric entries masked invalid: the same layers through the masked arm (ComputeEdgesMasked, tri-state tuples, masked similarity)",
		func(g *genSpec) { g.maskP = 0.03 }),
	stormSpec("storm_bigdb",
		"op = one verdict; storm_clean plus 20000 synthetic signatures per context at SigMinScore 0: signature scan and ranking become a major share while MIC work is unchanged",
		func(g *genSpec) { g.synthSigs = 20000 }),
	{
		name: "train", kind: kindTrain,
		why: "op = one context trained (ARIMA model + dense all-pairs MIC + Select) over 16 contexts x 8 normal runs: the offline half, exercised by no serving workload",
		gen: genSpec{types: offlineTypes, trainOnSeed: true},
	},
	{
		name: "persist", kind: kindPersist,
		why: "op = one LoadFrom of a 16-context store with 250 signatures each into a fresh system (its SaveTo is part of setup_s): restart cost through xmlstore, exercised by no other workload",
		gen: genSpec{types: offlineTypes, faults: checkFault, heldOut: 1, synthSigs: 250},
	},
}

// opFrames is how many consecutive frames to one stream make one timed
// operation: a storm verdict's fault window, or — ingest — four windows'
// worth. A single frame's round trip is at the mercy of how the scheduler
// splits two cores between the clients and the asynchronous apply; over 20
// frames that averages out and the latency percentiles repeat as well as the
// rate does.
func (sp spec) opFrames() int {
	n := sp.windowCap / sp.frameTicks
	if sp.kind == kindIngest {
		n *= 4
	}
	return n
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the system sees, reported by every workload
// from the untraced pass. One operation is the workload's unit of work (see
// each spec's why). The bounds come from the spreads measured over ten seeds
// (README "Measured spread"): rate and median stay within 7 %, the 90th
// percentile within 9 %, the live heap within 3 %, set-up within 15 %.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.12},
	{"op_ms_p50", "ms", "lower", 0.12},
	{"op_ms_p90", "ms", "lower", 0.15},
	{"heap_live_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}
