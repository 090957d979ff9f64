package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// The calibration child is this test binary started again (see kernelMain).
func TestMain(m *testing.M) {
	if os.Getenv(kernelEnv) != "" {
		kernelMain()
		return
	}
	code := m.Run()
	stopCalibrator()
	os.Exit(code)
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {100, 100}, {1, 10}, {10, 10}, {10.1, 20},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("nearest-rank median of 4 values = %v, want the 2nd", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(n=%d, p=%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0}, {20, 50}, {100, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1], n=4) == [0.5, 3.5] (the ends extrapolate).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v, %v, want 0.5, 3.5", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "verdict", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},    // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},   // clipped to the parent
		{ID: 4, Parent: 2, Name: "leaf", Start: 25, End: 45}, // grandchild: b's business
	}
	got := selfTimes(spans)
	want := map[string][]int64{"verdict": {50}, "a": {20}, "b": {10}, "c": {30}, "leaf": {20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderIDsDoNotCollide(t *testing.T) {
	t0 := time.Now()
	a, b := newRecorder(t0, 0), newRecorder(t0, 1<<26)
	root := a.id()
	child := a.add(7, root, "child", t0, t0.Add(time.Millisecond))
	a.put(root, 7, -1, "root", t0, t0.Add(2*time.Millisecond))
	other := b.add(8, -1, "root", t0, t0.Add(time.Millisecond))
	if root == child || root == other || child == other {
		t.Errorf("span IDs collide: %d %d %d", root, child, other)
	}
	var none *recorder
	if id := none.add(1, -1, "x", t0, t0); id != -1 || none.id() != -1 {
		t.Errorf("a nil recorder must record nothing")
	}
	self := selfTimes(append(a.spans, b.spans...))
	if got := self["root"]; len(got) != 2 {
		t.Errorf("want two root spans, got %v", got)
	}
}

func TestStintStatIsPerWorkerAndCalibrated(t *testing.T) {
	start := 10 * time.Second
	at := func(ms int) time.Duration { return start + time.Duration(ms)*time.Millisecond }
	perWorker := [][]op{
		{{at(0), at(100), 1}, {at(100), at(500), 1}}, // busy 0.5 s: 4 /s
		{{at(0), at(200), 6}},                        // busy 0.2 s, then idle: 30 /s
		nil,                                          // a worker that completed nothing
	}
	st := stintOf(start, perWorker, 0.8, 0) // the machine ran at 0.8 of the reference
	if math.Abs(st.rawRate-34) > 1e-9 {
		t.Errorf("raw rate = %v, want the workers' own rates summed (34)", st.rawRate)
	}
	if math.Abs(st.rate-34/0.8) > 1e-9 {
		t.Errorf("calibrated rate = %v, want raw / speed", st.rate)
	}
	// a slow machine's milliseconds count for less
	if want := []float64{80, 320, 160}; !reflect.DeepEqual(st.lat, want) {
		t.Errorf("calibrated latencies = %v, want %v", st.lat, want)
	}
	// acknowledged work that was finished only 1 s into the stint: every
	// worker's span ends there
	if st := stintOf(start, perWorker, 1, at(1000)); math.Abs(st.rawRate-8) > 1e-9 {
		t.Errorf("raw rate up to the drain = %v, want 8 units in 1 s", st.rawRate)
	}
}

func TestHeadlineIsMedianStintAndPooledPercentiles(t *testing.T) {
	p := &pass{stints: []stintStat{
		{rate: 100, rawRate: 50, lat: []float64{1, 2}},
		{rate: 500, rawRate: 52, lat: []float64{3}}, // a stint whose calibration went wrong
		{rate: 104, rawRate: 48, lat: []float64{4, 5}},
		{rate: 96, rawRate: 54, lat: []float64{6, 7, 8, 9, 10}},
	}}
	for i := 1; i <= 10; i++ {
		p.done = append(p.done, op{0, time.Duration(2*i) * time.Millisecond, 1})
	}
	cal, raw := p.headline()
	if want := (timings{102, 5, 9}); cal != want {
		t.Errorf("calibrated headline = %v, want %v (median stint; percentiles over all ten latencies)", cal, want)
	}
	if want := (timings{51, 10, 18}); raw != want {
		t.Errorf("wall-clock headline = %v, want %v", raw, want)
	}
}

func TestRunStintsDropsTheWarmUp(t *testing.T) {
	epoch := time.Now()
	var calls [clients]int
	stats, done, err := runStints(epoch, 90*time.Millisecond, func(w int, timed bool, end time.Time) ([]op, error) {
		if timed != (calls[w] > 0) {
			t.Errorf("worker %d call %d: timed = %v", w, calls[w], timed)
		}
		calls[w]++
		t0 := time.Now()
		time.Sleep(time.Until(end))
		return []op{{t0.Sub(epoch), time.Since(epoch), 1}}, nil
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != nStints || len(done) != nStints*clients {
		t.Errorf("%d stints, %d operations; want %d and %d", len(stats), len(done), nStints, nStints*clients)
	}
	for w, n := range calls {
		if n != nStints+1 {
			t.Errorf("worker %d ran %d stints, want a warm-up and %d timed", w, n, nStints)
		}
	}
	for _, s := range stats {
		if !(s.speed > 0) || !(s.rate > 0) || len(s.lat) != clients {
			t.Errorf("stint without figures: %+v", s)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		def    metricDef
		a, b   []float64
		status string
	}{
		{"same", lower, steady, steady, statusOK},
		{"latency up 20%", lower, steady, []float64{120, 121, 119, 120, 120}, statusBreach},
		{"latency down 20%", lower, steady, []float64{80, 81, 79, 80, 80}, statusOK},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79, 80, 80}, statusBreach},
		{"throughput up 20%", higher, steady, []float64{120, 121, 119, 120, 120}, statusOK},
		{"too noisy to tell", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, statusUnresolved},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, statusOK},
	} {
		if _, _, got := judge(c.def, c.a, c.b); got != c.status {
			t.Errorf("%s: status %s, want %s", c.name, got, c.status)
		}
	}
	worse, _, _ := judge(higher, []float64{100}, []float64{90})
	if math.Abs(worse-0.10) > 1e-12 {
		t.Errorf("worse = %v, want 0.10 of the parent's median", worse)
	}
}

func TestCompareFilesCountsBreaches(t *testing.T) {
	mk := func(tput float64) *runFile {
		f := &runFile{}
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, runRecord{Workload: "train", Result: result{Correct: true}, EndToEnd: map[string]metricValue{
				"ops_per_s": {Value: tput + float64(i), Unit: "1/s"},
				"op_ms_p50": {Value: 50, Unit: "ms"},
			}})
		}
		// a traced run's end-to-end values come from a shorter pass: ignored
		f.Runs = append(f.Runs, runRecord{Workload: "train", Trace: true, EndToEnd: map[string]metricValue{
			"ops_per_s": {Value: 1, Unit: "1/s"},
		}})
		return f
	}
	var sink discard
	if bad := compareFiles(sink, mk(100), mk(101)); bad != 0 {
		t.Errorf("steady pair: %d breaches, want 0", bad)
	}
	if bad := compareFiles(sink, mk(100), mk(70)); bad != 1 {
		t.Errorf("30%% throughput loss: %d breaches, want 1", bad)
	}
}

func TestCompareHoldsOutputsToTheParent(t *testing.T) {
	mk := func(failed int64, correct bool, hits int) *runFile {
		f := &runFile{}
		for seed := int64(1); seed <= 2; seed++ {
			f.Runs = append(f.Runs, runRecord{Workload: "storm_clean", Seed: seed,
				Result:   result{Correct: correct, Attempted: 1000, Failed: failed},
				EndToEnd: map[string]metricValue{"ops_per_s": {Value: 100, Unit: "1/s"}},
				Top1:     &top1{Hits: hits + int(seed), Windows: 112}})
		}
		return f
	}
	var sink discard
	for _, c := range []struct {
		name         string
		parent, with *runFile
		bad          int
	}{
		{"same outputs", mk(0, true, 90), mk(0, true, 90), 0},
		{"requests shed", mk(0, true, 90), mk(3, true, 90), 1},
		{"an output check failed", mk(0, true, 90), mk(0, false, 90), 1},
		{"accuracy fell at both seeds", mk(0, true, 90), mk(0, true, 89), 2},
		{"accuracy rose: still not the parent's outputs", mk(0, true, 90), mk(0, true, 91), 2},
		{"fewer failures than the parent", mk(3, true, 90), mk(1, true, 90), 0},
	} {
		if bad := compareFiles(sink, c.parent, c.with); bad != c.bad {
			t.Errorf("%s: %d breaches, want %d", c.name, bad, c.bad)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// The last line of a run is one JSON object with exactly four keys, and each
// metric exactly a value and a unit.
func TestResultSchema(t *testing.T) {
	m := &measurement{attempted: 12, e2e: map[string]float64{"ops_per_s": 3.5}, layer: map[string]float64{"proc.cpu_s": 1.25}}
	for _, trace := range []bool{false, true} {
		rec := record(specs[0], 1, 10, trace, time.Second, m)
		buf, err := json.Marshal(rec.Result)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(buf, &top); err != nil {
			t.Fatal(err)
		}
		if got := keys(top); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("result keys %v", got)
		}
		var metrics map[string]map[string]json.RawMessage
		if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			if got := keys(metrics[d.Name]); !reflect.DeepEqual(got, []string{"unit", "value"}) {
				t.Errorf("metric %s keys %v", d.Name, got)
			}
		}
		if !rec.Result.Correct || rec.Result.Attempted != 12 || rec.Result.Failed != 0 {
			t.Errorf("result header %+v", rec.Result)
		}
	}
	m.checks = []string{"mismatch"}
	if record(specs[0], 1, 10, false, time.Second, m).Result.Correct {
		t.Errorf("a failed output check must clear correct")
	}
	m.checks, m.failed = nil, 1
	if rec := record(specs[0], 1, 10, false, time.Second, m); rec.Result.Correct || rec.Result.Failed != 1 {
		t.Errorf("a failed or refused request must clear correct: %+v", rec.Result)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BENCHMARK.json at the repository root is what the acceptance driver reads;
// the tables in this package are what the program reports. They must agree,
// and stay inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || len(decl.Command) == 0 {
		t.Errorf("paths %v command %v", decl.Paths, decl.Command)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range decl.Workloads {
		unique(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: declared %q / %q, implemented %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: declared %+v, implemented %+v", decl.EndToEnd, endToEnd)
	}
	setup := false
	for _, d := range endToEnd {
		unique(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v outside the contract", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Errorf("setup_s (s, lower) must be an end-to-end metric")
	}
	if len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented (limit 128)", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v outside the contract", d)
		}
		if got := decl.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: declared %+v, implemented %+v", i, got, d)
		}
	}
}
