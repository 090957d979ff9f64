package experiments

import (
	"fmt"
	"io"
	"strings"

	"invarnetx/internal/cluster"
	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/faults"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// Fig2Result is the Fig. 2 outcome: CPI and execution time of Wordcount
// before and after a benign CPU disturbance (30 % extra utilisation, 300 s).
type Fig2Result struct {
	BaselineCPI    []float64
	DisturbedCPI   []float64
	BaselineTicks  int
	DisturbedTicks int
	Window         faults.Window
	// P95Shift is the relative change of the 95th-percentile CPI.
	P95Shift float64
	// DurationShift is the relative change of the execution time.
	DurationShift float64
}

// benignDisturbance injects 30 % extra CPU utilisation — below capacity, so
// no saturation results (the mechanism behind Fig. 2).
type benignDisturbance struct {
	window faults.Window
}

func (b *benignDisturbance) Name() string { return "cpu-disturbance-30pct" }
func (b *benignDisturbance) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	if b.window.Active(tick) {
		eff.Extra.CPU += 0.3 * n.Caps.CPUCores
	}
}

// RunFig2 executes the Fig. 2 experiment.
func (r *Runner) RunFig2() (*Fig2Result, error) {
	base, err := r.Run(workload.Wordcount, "", 0)
	if err != nil {
		return nil, err
	}
	// A disturbed run: same workload seed family, benign disturbance on
	// every slave during the window.
	dist, err := r.runWithPerturbation(workload.Wordcount, 0, func(w faults.Window) cluster.Perturbation {
		return &benignDisturbance{window: w}
	})
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{
		BaselineCPI:    base.Traces[firstSlaveIP].CPI,
		DisturbedCPI:   dist.Traces[firstSlaveIP].CPI,
		BaselineTicks:  base.DurationTicks,
		DisturbedTicks: dist.DurationTicks,
		Window:         faults.Window{Start: r.opts.FaultStart, End: r.opts.FaultStart + r.opts.FaultTicks},
	}
	pb, err := stats.Percentile(out.BaselineCPI, 95)
	if err != nil {
		return nil, err
	}
	pd, err := stats.Percentile(out.DisturbedCPI, 95)
	if err != nil {
		return nil, err
	}
	out.P95Shift = (pd - pb) / pb
	out.DurationShift = float64(dist.DurationTicks-base.DurationTicks) / float64(base.DurationTicks)
	return out, nil
}

// Print writes the Fig. 2 series and summary.
func (f *Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 2: Wordcount CPI under a 30%% CPU disturbance (ticks %d-%d)\n", f.Window.Start, f.Window.End)
	fmt.Fprintf(w, "  baseline CPI:  %s\n", seriesString(f.BaselineCPI))
	fmt.Fprintf(w, "  disturbed CPI: %s\n", seriesString(f.DisturbedCPI))
	fmt.Fprintf(w, "  execution time: %d -> %d ticks (%+.1f%%)\n", f.BaselineTicks, f.DisturbedTicks, 100*f.DurationShift)
	fmt.Fprintf(w, "  95th-pct CPI shift: %+.1f%%  (paper: CPI and execution time unaffected)\n", 100*f.P95Shift)
}

// Fig4Result is one workload's Fig. 4 study: CPI tracks execution time across
// repeated runs with injected faults; the 2nd-order fit is monotone increasing.
type Fig4Result struct {
	Workload workload.Type
	// NormTime and NormCPI are min-normalised execution times and
	// 95th-percentile CPIs, one per run.
	NormTime []float64
	NormCPI  []float64
	// Correlation is the Pearson coefficient (paper: 0.97 wordcount,
	// 0.95 sort).
	Correlation float64
	// Fit is the 2nd-order polynomial CPI = f(time).
	Fit stats.Polynomial
	// Monotone reports whether the fit increases over the data range.
	Monotone bool
}

// persistentHog is the Fig. 4 disturbance: a run-long contention source of
// varying type and intensity ("we inject several faults such as network
// jam, CPU hog and disk hog to make the execution time of these jobs
// varies").
type persistentHog struct {
	cpu, disk float64
	netScale  float64
}

func (p *persistentHog) Name() string { return "fig4-hog" }
func (p *persistentHog) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	eff.Extra.CPU += p.cpu
	eff.Extra.DiskMBps += p.disk
	if p.netScale > 0 {
		eff.ScaleNetCap(p.netScale)
		eff.ScaleTaskSpeed(0.6 + 0.4*p.netScale)
	}
}

// fig4Hog builds the i-th run's disturbance, rotating type and ramping
// intensity so execution times spread widely.
func fig4Hog(i int) *persistentHog {
	level := float64(i%5) / 4 // 0, 0.25, ..., 1
	switch i % 3 {
	case 0:
		return &persistentHog{cpu: 12 * level}
	case 1:
		return &persistentHog{disk: 300 * level}
	default:
		if level == 0 {
			return &persistentHog{}
		}
		return &persistentHog{netScale: 1 - 0.7*level}
	}
}

// RunFig4 executes the Fig. 4 study for one workload with the given number
// of runs (paper: 25).
func (r *Runner) RunFig4(w workload.Type, runs int) (*Fig4Result, error) {
	if runs <= 0 {
		runs = 25
	}
	var times, cpis []float64
	for i := 0; i < runs; i++ {
		hog := fig4Hog(i)
		res, err := r.runWithPerturbation(w, 5000+i, func(window faults.Window) cluster.Perturbation {
			return hog
		})
		if err != nil {
			return nil, err
		}
		tr := res.Traces[firstSlaveIP]
		p95, err := stats.Percentile(tr.CPI, 95)
		if err != nil {
			return nil, err
		}
		times = append(times, float64(res.DurationTicks))
		cpis = append(cpis, p95)
	}
	normT, err := stats.NormalizeToMin(times)
	if err != nil {
		return nil, err
	}
	normC, err := stats.NormalizeToMin(cpis)
	if err != nil {
		return nil, err
	}
	corr, err := stats.Pearson(normT, normC)
	if err != nil {
		return nil, err
	}
	fit, err := stats.PolyFit(normT, normC, 2)
	if err != nil {
		return nil, err
	}
	lo, _ := stats.Min(normT)
	hi, _ := stats.Max(normT)
	return &Fig4Result{
		Workload:    w,
		NormTime:    normT,
		NormCPI:     normC,
		Correlation: corr,
		Fit:         fit,
		Monotone:    fit.MonotoneIncreasingOn(lo, hi),
	}, nil
}

// Print writes the Fig. 4 rows.
func (f *Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 4 (%s): normalized (time, 95pct-CPI) over %d runs\n", f.Workload, len(f.NormTime))
	for i := range f.NormTime {
		fmt.Fprintf(w, "  run %2d: time=%.3f cpi=%.3f\n", i+1, f.NormTime[i], f.NormCPI[i])
	}
	fmt.Fprintf(w, "  corr(CPI, time) = %.3f  (paper: 0.97 wordcount / 0.95 sort)\n", f.Correlation)
	fmt.Fprintf(w, "  2nd-order fit: %s, monotone increasing: %v\n", f.Fit, f.Monotone)
}

// Fig5Result is the Fig. 5 series: CPI prediction residuals around a CPU-hog
// injection.
type Fig5Result struct {
	Workload  workload.Type
	Residuals []float64
	Threshold float64
	Window    faults.Window
	// Lead is the number of trace samples preceding Residuals[0].
	Lead int
}

// RunFig5 trains the detector and reports |residuals| of a CPU-hog run.
func (r *Runner) RunFig5(w workload.Type) (*Fig5Result, error) {
	sys, _, err := r.TrainSystem(w)
	if err != nil {
		return nil, err
	}
	res, err := r.Run(w, faults.CPUHog, 6000)
	if err != nil {
		return nil, err
	}
	tr := res.TargetTrace()
	ctx := core.Context{Workload: string(w), IP: res.TargetIP}
	d, err := sys.Detector(ctx)
	if err != nil {
		return nil, err
	}
	rs, err := d.ResidualSeries(tr.CPI)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Workload:  w,
		Residuals: rs,
		Threshold: d.Upper,
		Window:    res.Window,
		Lead:      len(tr.CPI) - len(rs),
	}, nil
}

// Print writes the residual series.
func (f *Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 5 (%s): |CPI prediction residual| around CPU-hog (ticks %d-%d), threshold %.4f\n",
		f.Workload, f.Window.Start, f.Window.End, f.Threshold)
	fmt.Fprintf(w, "  residuals: %s\n", seriesString(f.Residuals))
	inWin, outWin := 0.0, 0.0
	nIn, nOut := 0, 0
	for i, v := range f.Residuals {
		tick := i + f.Lead
		if f.Window.Active(tick) {
			inWin += v
			nIn++
		} else {
			outWin += v
			nOut++
		}
	}
	if nIn > 0 && nOut > 0 {
		fmt.Fprintf(w, "  mean residual inside window %.4f vs outside %.4f (paper: clear separation)\n",
			inWin/float64(nIn), outWin/float64(nOut))
	}
}

// Fig6Rule is one threshold rule's anomaly decisions on a CPU-hog run
// (Fig. 6).
type Fig6Rule struct {
	Rule detect.Rule
	// FalseAlarms counts anomalous samples outside the fault window.
	FalseAlarms int
	// Hits counts anomalous samples inside the fault window.
	Hits int
	// WindowSamples / OutsideSamples are the denominators.
	WindowSamples  int
	OutsideSamples int
}

// Fig6Result compares the three rules (paper: 95-percentile worst,
// beta-max chosen).
type Fig6Result struct {
	Workload workload.Type
	Window   faults.Window
	Rules    []Fig6Rule
}

// RunFig6 executes the threshold-rule comparison for one workload.
func (r *Runner) RunFig6(w workload.Type) (*Fig6Result, error) {
	runs, err := r.normalRuns(w)
	if err != nil {
		return nil, err
	}
	traces, _ := r.trainingSet(runs, firstSlaveIP) // the CPI series only
	res, err := r.Run(w, faults.CPUHog, 6100)
	if err != nil {
		return nil, err
	}
	tr := res.TargetTrace()
	out := &Fig6Result{Workload: w, Window: res.Window}
	for _, rule := range detect.Rules() {
		cfg := detect.DefaultConfig()
		cfg.Rule = rule
		d, err := detect.Train(traces, cfg)
		if err != nil {
			return nil, err
		}
		mon := d.NewMonitor(tr.CPI[:monWarmup])
		fr := Fig6Rule{Rule: rule}
		for tick := monWarmup; tick < tr.Len(); tick++ {
			anom := mon.Offer(tr.CPI[tick])
			if res.Window.Active(tick) {
				fr.WindowSamples++
				if anom {
					fr.Hits++
				}
			} else {
				fr.OutsideSamples++
				if anom {
					fr.FalseAlarms++
				}
			}
		}
		out.Rules = append(out.Rules, fr)
	}
	return out, nil
}

// Print writes the rule comparison.
func (f *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig 6 (%s): anomaly decisions per threshold rule, fault window ticks %d-%d\n",
		f.Workload, f.Window.Start, f.Window.End)
	for _, fr := range f.Rules {
		fmt.Fprintf(w, "  %-13s hits %d/%d in-window, false alarms %d/%d outside\n",
			fr.Rule, fr.Hits, fr.WindowSamples, fr.FalseAlarms, fr.OutsideSamples)
	}
	fmt.Fprintf(w, "  (paper: 95-percentile worst; beta-max and max-min similar, beta-max cheaper)\n")
}

// seriesString renders a float series compactly: "0.95 0.91 0.97".
func seriesString(xs []float64) string {
	return strings.Trim(fmt.Sprintf("%.2f", xs), "[]")
}
