package main

import (
	"fmt"
	"io"
	"sort"
)

// spread returns the distance between the first and third quartile of xs as
// a share of their median (0 for fewer than two values).
func spread(xs []float64) float64 {
	m := mid(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// verdicts of one compared (workload, metric) pairing.
const (
	statusOK         = "ok"
	statusUnresolved = "unresolved"
	statusBreach     = "BREACH"
)

// judge compares the change's values b against the parent's values a for one
// metric: how much worse b's median is as a share of a's, the wider of the
// two run-to-run spreads, and the status. A spread beyond the bound leaves
// the pairing unresolved — unless every run of b reads better than every run
// of a.
func judge(def metricDef, a, b []float64) (worse, spr float64, status string) {
	ma, mb := mid(a), mid(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == "higher" {
			worse = -worse
		}
	}
	spr = spread(a)
	if s := spread(b); s > spr {
		spr = s
	}
	switch {
	case spr > def.Bound && !allBetter(def, a, b):
		status = statusUnresolved
	case worse > def.Bound:
		status = statusBreach
	default:
		status = statusOK
	}
	return worse, spr, status
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(def metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// endToEndValues collects, per workload and metric, the values of f's
// untraced runs.
func endToEndValues(f *runFile) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// outcomes sums what a file's untraced runs of one workload attempted and
// failed, counts the runs that were not correct, and keeps each seed's
// diagnosis accuracy.
type outcomes struct {
	attempted, failed int64
	incorrect         int
	top1              map[int64]top1
}

func outcomesOf(f *runFile, workload string) outcomes {
	o := outcomes{top1: make(map[int64]top1)}
	for _, r := range f.Runs {
		if r.Trace || r.Workload != workload {
			continue
		}
		o.attempted += r.Result.Attempted
		o.failed += r.Result.Failed
		if !r.Result.Correct {
			o.incorrect++
		}
		if r.Top1 != nil {
			o.top1[r.Seed] = *r.Top1
		}
	}
	return o
}

func (o outcomes) failShare() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// judgeOutcomes holds the change's outputs to the parent's, both with a bound
// of 0: no incorrect run, no higher share of failed requests, and at every
// seed both ran the same diagnosis accuracy. It returns one line per breach.
func judgeOutcomes(a, b outcomes) []string {
	var out []string
	if b.incorrect > 0 {
		out = append(out, fmt.Sprintf("%d run(s) of the change failed an output check", b.incorrect))
	}
	if fa, fb := a.failShare(), b.failShare(); fb > fa {
		out = append(out, fmt.Sprintf("fail share rose from %d/%d to %d/%d", a.failed, a.attempted, b.failed, b.attempted))
	}
	for seed, ta := range a.top1 {
		if tb, ok := b.top1[seed]; ok && tb != ta {
			out = append(out, fmt.Sprintf("seed %d: top-1 accuracy %d/%d at the parent, %d/%d at the change", seed, ta.Hits, ta.Windows, tb.Hits, tb.Windows))
		}
	}
	sort.Strings(out)
	return out
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// relative difference in the worse direction, the spread and the bound, then
// how the runs' outputs compare, and returns how many pairings breached their
// bound or could not be compared.
func compareFiles(w io.Writer, a, b *runFile) int {
	va, vb := endToEndValues(a), endToEndValues(b)
	fmt.Fprintf(w, "parent %s (%d runs)  change %s (%d runs)\n", a.Commit, len(a.Runs), b.Commit, len(b.Runs))
	fmt.Fprintf(w, "%-15s %-13s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "status")
	bad := 0
	for _, sp := range specs {
		for _, def := range endToEnd {
			xa, xb := va[sp.name][def.Name], vb[sp.name][def.Name]
			if len(xa) == 0 && len(xb) == 0 {
				continue
			}
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-15s %-13s missing on one side\n", sp.name, def.Name)
				bad++
				continue
			}
			worse, spr, status := judge(def, xa, xb)
			if status == statusBreach {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-13s %14.4f %14.4f %+8.1f%% %8.1f%% %6.0f%%  %s\n",
				sp.name, def.Name, mid(xa), mid(xb), 100*worse, 100*spr, 100*def.Bound, status)
		}
		for _, line := range judgeOutcomes(outcomesOf(a, sp.name), outcomesOf(b, sp.name)) {
			fmt.Fprintf(w, "%-15s %s  %s\n", sp.name, line, statusBreach)
			bad++
		}
	}
	return bad
}
