package main

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The sandbox this benchmark runs in does not hold its speed: for seconds or
// minutes at a time the whole machine — any code, with or without system
// calls — runs 10–40% slower, and nothing makes it run faster. Raw wall-clock
// figures from two sets of runs of one commit have differed by half.
//
// So the end-to-end timings are reported in calibrated seconds. A pass runs
// as one warm-up stint and nStints timed ones; between stints, while the
// program under test is idle, the benchmark times a fixed synthetic kernel of
// its own (floating-point arithmetic and a standard-library XML decode —
// nothing from the repository). The kernel runs in a child process (this
// binary again, see kernelMain), because its XML decode allocates: in the
// benchmark's process its rate would depend on the live heap and the
// collector's state, which the program under test sets, so a change to the
// program could move the yardstick. The child's heap holds the kernel and
// nothing else.
//
// The kernel's rate says how fast the machine is right now, and a stint's
// times are scaled by the mean of the rates measured just before and just
// after it, relative to refKernelRate: seconds as they would read on a
// machine that runs the kernel at the reference rate. The pass reports the
// median stint's rate — a calibration that happened to land in a burst the
// stint did not share distorts one stint, and the median sets it aside — and
// percentiles over all its operations' calibrated latencies. Every run also
// prints the same figures as the wall clock read them and the machine speeds
// it saw.

const (
	// nStints is the number of timed stints in a pass: at 10 s a stint lasts
	// 0.6 s, short enough that the calibrations around it see the machine the
	// stint saw (8 stints repeated markedly worse, 24 no better).
	nStints = 16
	// calibLen is how long one calibration runs.
	calibLen = 60 * time.Millisecond
	// refKernelRate is the kernel rate, in iterations per second over
	// `clients` goroutines, of the reference machine: roughly the two-vCPU
	// sandbox this was written in at its quietest. Only ratios of measurements
	// taken with the same constant mean anything.
	refKernelRate = 7000.0
)

// kernelSink keeps the kernel's results alive.
var kernelSink [clients]float64

// kernelState is one goroutine's calibration working set.
type kernelState struct {
	tab [64][64]float64
}

// kernelDoc is the small document the kernel decodes.
type kernelDoc struct {
	XMLName xml.Name `xml:"doc"`
	Rows    []struct {
		Name string    `xml:"name,attr"`
		Vals []float64 `xml:"v"`
	} `xml:"row"`
}

// kernelXML is a kernelDoc of 4 rows of 30 values.
var kernelXML = func() []byte {
	var b bytes.Buffer
	b.WriteString("<doc>")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, `<row name="row-%d">`, i)
		for j := 0; j < 30; j++ {
			fmt.Fprintf(&b, "<v>%g</v>", float64(i*30+j)*0.37)
		}
		b.WriteString("</row>")
	}
	b.WriteString("</doc>")
	return b.Bytes()
}()

// kernel is one iteration of the calibration work, in two halves of about
// equal time: a dependent floating-point table fill that keeps the core's
// pipelines full, and a standard-library XML decode (allocation, reflection,
// string handling). The mix matters. When the sandbox slows down, code that
// keeps the pipelines full loses about twice as much, in log terms, as code
// that mostly waits on branches and memory (a sort of random numbers, a
// pointer walk): probed side by side for six minutes, a kernel of the second
// sort left 10-14% of the swings of this repository's MIC scoring, of a
// loopback HTTP round trip and of an XML decode unexplained, this one 4-7%.
func (k *kernelState) kernel() float64 {
	t := &k.tab
	for pass := 0; pass < 2; pass++ {
		for i := 1; i < len(t); i++ {
			for j := 1; j < len(t[i]); j++ {
				v := t[i-1][j]
				if t[i][j-1] > v {
					v = t[i][j-1]
				}
				t[i][j] = 0.5*v + 0.25*t[i-1][j-1] + float64(i^j)*1e-3 + math.Log1p(float64(i+j))*1e-4
			}
		}
	}
	var doc kernelDoc
	if err := xml.Unmarshal(kernelXML, &doc); err != nil {
		panic(err) // a constant document: only a bug in this file can fail it
	}
	return t[63][63] + doc.Rows[3].Vals[29]
}

// kernels holds each calibration goroutine's state across calibrations.
var kernels = func() (ks [clients]*kernelState) {
	for g := range ks {
		ks[g] = new(kernelState)
	}
	return ks
}()

// kernelRate times the kernel on `clients` goroutines for calibLen and returns
// iterations per second.
func kernelRate() float64 {
	var counts [clients]int
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(calibLen)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(end) {
				kernelSink[g] += kernels[g].kernel()
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return float64(n) / time.Since(start).Seconds()
}

// kernelEnv, when set, makes this binary (or its test binary) the calibration
// child instead of the benchmark.
const kernelEnv = "INVARBENCH_KERNEL_CHILD"

// kernelMain is the calibration child: for every line on standard input it
// times the kernel once and answers with the rate, until the input closes —
// which it also does when the parent dies, so the child never outlives it.
func kernelMain() {
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return
		}
		fmt.Println(strconv.FormatFloat(kernelRate(), 'g', -1, 64))
	}
}

// calibrator is the running calibration child. One goroutine — the one that
// coordinates a pass — talks to it.
var calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startCalibrator launches the child on first use.
func startCalibrator() error {
	if calibrator.cmd != nil {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), kernelEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	calibrator.cmd, calibrator.in, calibrator.out = cmd, in, bufio.NewReader(out)
	return nil
}

// stopCalibrator ends the child, if one runs, and waits for it.
func stopCalibrator() {
	if calibrator.cmd == nil {
		return
	}
	calibrator.in.Close()
	_ = calibrator.cmd.Wait()
	calibrator.cmd = nil
}

// machineSpeed has the child time the kernel and returns the machine's speed
// relative to the reference (1 = reference). The caller's process is idle
// meanwhile.
func machineSpeed() (float64, error) {
	if err := startCalibrator(); err != nil {
		return 0, fmt.Errorf("bench: calibration child: %w", err)
	}
	if _, err := io.WriteString(calibrator.in, "\n"); err != nil {
		return 0, fmt.Errorf("bench: calibration child: %w", err)
	}
	line, err := calibrator.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("bench: calibration child: %w", err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || !(rate > 0) {
		return 0, fmt.Errorf("bench: calibration child answered %q", line)
	}
	return rate / refKernelRate, nil
}

// op is one completed operation: when it started and ended, as offsets from
// the start of its pass, and how many units of work it carried (the samples
// of an ingest window; 1 otherwise).
type op struct {
	start, end time.Duration
	size       int64
}

// stintStat is what one timed stint yields.
type stintStat struct {
	rate    float64   // units of work per calibrated second
	rawRate float64   // units of work per second as the wall clock read
	speed   float64   // machine speed during the stint, 1 = reference
	lat     []float64 // the stint's operations' latencies, calibrated ms
}

// stintOf reduces one stint's operations, per worker, to its stat. Each
// worker's rate runs over its own busy span (stint start to its last
// operation's end), so a worker idling out the tail of the stint — it may not
// start an operation it cannot finish — does not count as slow. With settled
// set (the time the work the stint left behind was finished, see runStints),
// every worker's span ends there instead: work acknowledged before it is done
// is not complete until it is.
func stintOf(start time.Duration, perWorker [][]op, speed float64, settled time.Duration) stintStat {
	st := stintStat{speed: speed}
	for _, ops := range perWorker {
		if len(ops) == 0 {
			continue
		}
		var work int64
		for _, o := range ops {
			work += o.size
			st.lat = append(st.lat, ms(o.end-o.start)*speed)
		}
		end := ops[len(ops)-1].end
		if settled > 0 {
			end = settled
		}
		if busy := end - start; busy > 0 {
			st.rawRate += float64(work) / busy.Seconds()
		}
	}
	st.rate = st.rawRate / speed
	return st
}

// runStints drives one pass of about d as a warm-up stint plus nStints timed
// ones, on `clients` goroutines. work performs worker w's operations until
// end and returns them (offsets from epoch). settle, when not nil, runs after
// each stint and before the machine is calibrated, and waits for asynchronous
// work the stint left behind; with settleIsWork the time it takes counts as
// the stint's. It returns the timed stints' stats and operations.
func runStints(epoch time.Time, d time.Duration, work func(w int, timed bool, end time.Time) ([]op, error), settle func() error, settleIsWork bool) ([]stintStat, []op, error) {
	length := d / (nStints + 1)
	var stats []stintStat
	var done []op
	before, err := machineSpeed()
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k <= nStints; k++ {
		start := time.Now()
		end := start.Add(length)
		perWorker := make([][]op, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				perWorker[w], errs[w] = work(w, k > 0, end)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		var settled time.Duration
		if settle != nil {
			if err := settle(); err != nil {
				return nil, nil, err
			}
			if settleIsWork {
				settled = time.Since(epoch)
			}
		}
		after, err := machineSpeed()
		if err != nil {
			return nil, nil, err
		}
		if k > 0 {
			stats = append(stats, stintOf(start.Sub(epoch), perWorker, (before+after)/2, settled))
			for _, ops := range perWorker {
				done = append(done, ops...)
			}
		}
		before = after
	}
	return stats, done, nil
}

// calibrated times fn and returns its duration in seconds as the wall clock
// read it and in calibrated seconds, from the machine speed measured before
// and after it.
func calibrated(fn func() error) (raw, cal float64, err error) {
	before, err := machineSpeed()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	raw = time.Since(t0).Seconds()
	after, err := machineSpeed()
	if err != nil {
		return 0, 0, err
	}
	return raw, raw * (before + after) / 2, nil
}
