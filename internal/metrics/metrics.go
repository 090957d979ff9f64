// Package metrics is the product's sample vocabulary: the 26 per-node
// operating-system and process metrics the paper's prototype collects with
// collectl every 10 seconds, "not only ... coarse-grained CPU, memory, disk
// and network utilization but also ... fine-grained metrics such as CPU
// context switch per second, memory page faults, etc." (§4), and the Trace
// that holds one node's samples, its CPI series and their validity masks.
//
// The package imports nothing of the module: the simulated collectl agent
// that produces samples on the testbed lives with the simulator
// (cluster.Collectl), and the daemon's ingest path builds the same Trace
// from the wire.
package metrics

import "fmt"

// Names lists the 26 collected metrics, index-aligned with sample vectors.
var Names = []string{
	"cpu.user",        // 0: user CPU %
	"cpu.sys",         // 1: system CPU %
	"cpu.idle",        // 2: idle CPU %
	"cpu.iowait",      // 3: IO-wait CPU %
	"cpu.ctxswitch",   // 4: context switches /s
	"cpu.interrupts",  // 5: interrupts /s
	"load.runq",       // 6: run-queue length
	"mem.used",        // 7: MB
	"mem.free",        // 8: MB
	"mem.cached",      // 9: MB
	"mem.pagefaults",  // 10: faults /s
	"mem.swaprate",    // 11: swap pages /s
	"disk.readmb",     // 12: MB/s
	"disk.writemb",    // 13: MB/s
	"disk.iops",       // 14: IO /s
	"disk.util",       // 15: %
	"disk.queue",      // 16: queue length
	"net.rxmb",        // 17: MB/s
	"net.txmb",        // 18: MB/s
	"net.rxpackets",   // 19: packets /s
	"net.txpackets",   // 20: packets /s
	"net.retransmits", // 21: segments /s
	"net.rttms",       // 22: ms
	"proc.count",      // 23: processes
	"proc.threads",    // 24: threads
	"proc.openfds",    // 25: open descriptors
}

// Count is the number of collected metrics (M in the paper; M(M-1)/2 = 325
// candidate association pairs).
const Count = 26

// Trace accumulates per-tick metric vectors for one node over one run:
// Trace[m][t] is metric m at tick t. Most traces carry the platform's
// Count metrics, but a trace may be built at any width (NewTraceWidth) by a
// caller stacking rows of its own.
//
// A trace from a degraded telemetry path additionally carries validity
// masks: Valid[m][t] is false when metric m at tick t is not a real
// observation (lost or corrupt on the way in), and CPIValid[t] likewise for
// the CPI series. Nil masks mean every sample is a genuine observation — the
// clean fast path allocates nothing.
type Trace struct {
	NodeIP  string
	Rows    [][]float64 // Width() rows (Count unless built otherwise)
	CPI     []float64   // the parallel CPI series
	Ticks   int
	Context string // workload type of the run

	Valid    [][]bool // nil, or Width() rows parallel to Rows
	CPIValid []bool   // nil, or parallel to CPI
}

// NewTrace returns an empty trace for a node at the platform metric width.
func NewTrace(nodeIP, workloadType string) *Trace {
	return NewTraceWidth(nodeIP, workloadType, Count)
}

// NewTraceWidth returns an empty trace with width metric rows. Width 0 is
// rejected by Add, so callers must pick the platform Count or an explicit
// joint width.
func NewTraceWidth(nodeIP, workloadType string, width int) *Trace {
	return &Trace{
		NodeIP:  nodeIP,
		Rows:    make([][]float64, width),
		Context: workloadType,
	}
}

// Add appends one sampled vector (and its CPI reading) to the trace.
func (t *Trace) Add(sample []float64, cpiValue float64) error {
	if len(sample) != len(t.Rows) {
		return fmt.Errorf("metrics: sample has %d entries, want %d", len(sample), len(t.Rows))
	}
	for m, v := range sample {
		t.Rows[m] = append(t.Rows[m], v)
	}
	t.CPI = append(t.CPI, cpiValue)
	t.Ticks++
	if t.Valid != nil {
		for m := range t.Valid {
			t.Valid[m] = append(t.Valid[m], true)
		}
		t.CPIValid = append(t.CPIValid, true)
	}
	return nil
}

// MetricValid returns the validity mask of metric m, or nil when the whole
// trace is genuine.
func (t *Trace) MetricValid(m int) []bool {
	if t.Valid == nil {
		return nil
	}
	return t.Valid[m]
}

// ValidFraction returns the fraction of metric samples (across all rows)
// that are genuine observations; 1 for an unmasked trace.
func (t *Trace) ValidFraction() float64 {
	if t.Valid == nil {
		return 1
	}
	total, ok := 0, 0
	for m := range t.Valid {
		for _, v := range t.Valid[m] {
			total++
			if v {
				ok++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// Len returns the number of ticks recorded.
func (t *Trace) Len() int { return t.Ticks }

// Slice returns the sub-trace covering ticks [lo, hi).
func (t *Trace) Slice(lo, hi int) (*Trace, error) {
	if lo < 0 || hi > t.Ticks || lo > hi {
		return nil, fmt.Errorf("metrics: slice [%d,%d) out of range for %d ticks", lo, hi, t.Ticks)
	}
	out := NewTraceWidth(t.NodeIP, t.Context, len(t.Rows))
	for m := range t.Rows {
		out.Rows[m] = append([]float64(nil), t.Rows[m][lo:hi]...)
	}
	out.CPI = append([]float64(nil), t.CPI[lo:hi]...)
	out.Ticks = hi - lo
	if t.Valid != nil {
		out.Valid = make([][]bool, len(t.Rows))
		for m := range t.Valid {
			out.Valid[m] = append([]bool(nil), t.Valid[m][lo:hi]...)
		}
		out.CPIValid = append([]bool(nil), t.CPIValid[lo:hi]...)
	}
	return out, nil
}
