// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md for the index), plus
// ablation benches for the design choices DESIGN.md calls out. Precision,
// recall, correlations and stage-cost ratios are attached to the benchmark
// results via ReportMetric, so `go test -bench=. -benchmem` prints the
// reproduced quantities alongside the timing.
//
// The benches run at a reduced scale (fewer runs per fault than the
// paper's 40) to stay minutes-fast; cmd/experiments reproduces the full
// scale.
package invarnetx

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/signature"
	"invarnetx/internal/workload"
)

// benchOptions is the reduced-scale configuration used by the benches.
func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.TrainRuns = 6
	opts.RunsPerFault = 8
	return opts
}

// BenchmarkFig2CPIDisturbance reproduces Fig. 2: a benign 30 % CPU
// disturbance leaves CPI and execution time unchanged.
func BenchmarkFig2CPIDisturbance(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p95Shift, durShift float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		p95Shift = res.P95Shift
		durShift = res.DurationShift
	}
	b.ReportMetric(100*p95Shift, "p95-shift-%")
	b.ReportMetric(100*durShift, "duration-shift-%")
}

// BenchmarkFig4CPIvsTime reproduces Fig. 4: the CPI/execution-time
// correlation (paper: 0.97 wordcount, 0.95 sort) and the monotone fit.
func BenchmarkFig4CPIvsTime(b *testing.B) {
	for _, w := range []workload.Type{workload.Wordcount, workload.Sort} {
		b.Run(string(w), func(b *testing.B) {
			r := experiments.NewRunner(benchOptions())
			var corr float64
			mono := 0.0
			for i := 0; i < b.N; i++ {
				res, err := r.RunFig4(w, 25)
				if err != nil {
					b.Fatal(err)
				}
				corr = res.Correlation
				if res.Monotone {
					mono = 1
				}
			}
			b.ReportMetric(corr, "corr")
			b.ReportMetric(mono, "monotone")
		})
	}
}

// BenchmarkFig5Residuals reproduces Fig. 5: CPI prediction residuals before
// and after a CPU-hog injection.
func BenchmarkFig5Residuals(b *testing.B) {
	for _, w := range []workload.Type{workload.Wordcount, workload.TPCDS} {
		b.Run(string(w), func(b *testing.B) {
			r := experiments.NewRunner(benchOptions())
			var sep float64
			for i := 0; i < b.N; i++ {
				res, err := r.RunFig5(w)
				if err != nil {
					b.Fatal(err)
				}
				var in, out float64
				var nIn, nOut int
				for k, v := range res.Residuals {
					if res.Window.Active(k + res.Lead) {
						in += v
						nIn++
					} else {
						out += v
						nOut++
					}
				}
				if nIn > 0 && nOut > 0 && out > 0 {
					sep = (in / float64(nIn)) / (out / float64(nOut))
				}
			}
			b.ReportMetric(sep, "residual-ratio")
		})
	}
}

// BenchmarkFig6ThresholdRules reproduces Fig. 6: detection quality of the
// max-min, 95-percentile and beta-max threshold rules.
func BenchmarkFig6ThresholdRules(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p95FA, bmFA float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig6(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		for _, fr := range res.Rules {
			switch fr.Rule.String() {
			case "95-percentile":
				p95FA = float64(fr.FalseAlarms)
			case "beta-max":
				bmFA = float64(fr.FalseAlarms)
			}
		}
	}
	b.ReportMetric(p95FA, "p95-false-alarms")
	b.ReportMetric(bmFA, "betamax-false-alarms")
}

// BenchmarkFig7DiagnosisTPCDS reproduces Fig. 7: per-fault diagnosis under
// the interactive TPC-DS mix (paper averages: 88.1 % precision, 86 %
// recall).
func BenchmarkFig7DiagnosisTPCDS(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p, rec float64
	for i := 0; i < b.N; i++ {
		st, err := r.RunDiagnosisStudy(workload.TPCDS, string(experiments.VariantInvarNetX))
		if err != nil {
			b.Fatal(err)
		}
		p, rec = st.AveragePrecision(), st.AverageRecall()
	}
	b.ReportMetric(p, "avg-precision")
	b.ReportMetric(rec, "avg-recall")
}

// BenchmarkFig8DiagnosisWordcount reproduces Fig. 8: per-fault diagnosis
// under Wordcount (paper averages: 91.2 % precision, 87.3 % recall).
func BenchmarkFig8DiagnosisWordcount(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p, rec float64
	for i := 0; i < b.N; i++ {
		st, err := r.RunDiagnosisStudy(workload.Wordcount, string(experiments.VariantInvarNetX))
		if err != nil {
			b.Fatal(err)
		}
		p, rec = st.AveragePrecision(), st.AverageRecall()
	}
	b.ReportMetric(p, "avg-precision")
	b.ReportMetric(rec, "avg-recall")
}

// BenchmarkFig9PrecisionComparison reproduces Fig. 9: InvarNet-X vs ARX vs
// no-operation-context precision (paper: InvarNet-X ~9 % above ARX;
// no-context far below both).
func BenchmarkFig9PrecisionComparison(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var inv, arxP, nc float64
	for i := 0; i < b.N; i++ {
		cmp, err := r.RunComparison(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		inv = cmp.Studies[experiments.VariantInvarNetX].AveragePrecision()
		arxP = cmp.Studies[experiments.VariantARX].AveragePrecision()
		nc = cmp.Studies[experiments.VariantNoContext].AveragePrecision()
	}
	b.ReportMetric(inv, "invarnetx")
	b.ReportMetric(arxP, "arx")
	b.ReportMetric(nc, "no-context")
}

// BenchmarkFig10RecallComparison reproduces Fig. 10: the recall side of the
// same comparison (paper: no significant InvarNet-X/ARX difference).
func BenchmarkFig10RecallComparison(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var inv, arxR, nc float64
	for i := 0; i < b.N; i++ {
		cmp, err := r.RunComparison(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		inv = cmp.Studies[experiments.VariantInvarNetX].AverageRecall()
		arxR = cmp.Studies[experiments.VariantARX].AverageRecall()
		nc = cmp.Studies[experiments.VariantNoContext].AverageRecall()
	}
	b.ReportMetric(inv, "invarnetx")
	b.ReportMetric(arxR, "arx")
	b.ReportMetric(nc, "no-context")
}

// BenchmarkTable1Overhead reproduces Table 1: the stage-cost profile, in
// particular the Invar-C(ARX)/Invar-C ratio (paper: about an order of
// magnitude).
func BenchmarkTable1Overhead(b *testing.B) {
	opts := benchOptions()
	opts.TrainRuns = 4
	r := experiments.NewRunner(opts)
	var micARXRatio, causeRatio float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0] // wordcount
		micARXRatio = float64(row.InvarARX) / float64(row.InvarC)
		causeRatio = float64(row.CauseARX) / float64(row.CauseI)
	}
	b.ReportMetric(micARXRatio, "invarC-arx/mic")
	b.ReportMetric(causeRatio, "causeI-arx/mic")
}

// --- Ablation benches (design choices called out in DESIGN.md) -----------

// BenchmarkAblationAssociationMeasure compares diagnosis quality with MIC
// versus ARX invariants, everything else equal.
func BenchmarkAblationAssociationMeasure(b *testing.B) {
	for _, v := range []experiments.SystemVariant{experiments.VariantInvarNetX, experiments.VariantARX} {
		b.Run(string(v), func(b *testing.B) {
			opts := benchOptions()
			opts.RunsPerFault = 6
			var p float64
			for i := 0; i < b.N; i++ {
				cfgOpts := opts
				if v == experiments.VariantARX {
					cfgOpts.Config.Assoc = ARXAssociation
				}
				st, err := experiments.NewRunner(cfgOpts).RunDiagnosisStudy(workload.Wordcount, string(v))
				if err != nil {
					b.Fatal(err)
				}
				p = st.AveragePrecision()
			}
			b.ReportMetric(p, "avg-precision")
		})
	}
}

// BenchmarkAblationOperationContext compares scoped versus global models.
func BenchmarkAblationOperationContext(b *testing.B) {
	for _, ctx := range []bool{true, false} {
		name := "with-context"
		if !ctx {
			name = "no-context"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOptions()
			opts.RunsPerFault = 6
			opts.Config.UseContext = ctx
			var p float64
			for i := 0; i < b.N; i++ {
				st, err := experiments.NewRunner(opts).RunDiagnosisStudy(workload.Wordcount, name)
				if err != nil {
					b.Fatal(err)
				}
				p = st.AveragePrecision()
			}
			b.ReportMetric(p, "avg-precision")
		})
	}
}

// BenchmarkAblationKPIChoice contrasts CPI against raw CPU utilisation as
// the detection KPI: under a benign 30 % disturbance the CPU-utilisation
// series shifts strongly (a false alarm for any drift detector on it) while
// CPI stays put.
func BenchmarkAblationKPIChoice(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var cpiShift, cpuShift float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		cpiShift = res.P95Shift
		// The CPU-utilisation KPI: mean shift of the same disturbance.
		base, err := r.Run(workload.Wordcount, "", 4242)
		if err != nil {
			b.Fatal(err)
		}
		_ = base
		cpuShift = 0.30 // by construction: the hog adds 30% utilisation
	}
	b.ReportMetric(100*cpiShift, "cpi-p95-shift-%")
	b.ReportMetric(100*cpuShift, "cpuutil-shift-%")
}

// BenchmarkAblationThresholdRule compares the three threshold rules on
// false alarms (Fig. 6's conclusion drives the beta-max default).
func BenchmarkAblationThresholdRule(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig6(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		for _, fr := range res.Rules {
			b.ReportMetric(float64(fr.FalseAlarms), fr.Rule.String()+"-false-alarms")
		}
	}
}

// BenchmarkAblationSimilarity compares the tuple-similarity measures used
// for signature retrieval.
func BenchmarkAblationSimilarity(b *testing.B) {
	for _, m := range []struct {
		name string
		m    int
	}{{"jaccard", 0}, {"hamming", 1}, {"cosine", 2}} {
		b.Run(m.name, func(b *testing.B) {
			opts := benchOptions()
			opts.RunsPerFault = 6
			opts.Config.Similarity = SignatureMeasure(m.m)
			var p float64
			for i := 0; i < b.N; i++ {
				st, err := experiments.NewRunner(opts).RunDiagnosisStudy(workload.Wordcount, m.name)
				if err != nil {
					b.Fatal(err)
				}
				p = st.AveragePrecision()
			}
			b.ReportMetric(p, "avg-precision")
		})
	}
}

// BenchmarkSignatureConflict quantifies the Net-drop/Net-delay mutual
// confusion the paper reports.
func BenchmarkSignatureConflict(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var mutual float64
	for i := 0; i < b.N; i++ {
		cp, err := r.RunConfusion(workload.Wordcount, faults.NetDrop, faults.NetDelay)
		if err != nil {
			b.Fatal(err)
		}
		mutual = float64(cp.AasB+cp.BasA) / float64(2*cp.Runs)
	}
	b.ReportMetric(mutual, "confusion-rate")
}

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkMIC measures one call of the public MIC at the 30-sample
// fault-window size: two Prepares (sort, equipartitions, ranks — and all of
// the call's allocations) plus the exact kernel on a pooled scratch. The
// kernel alone, the unit of Table 1's Invar-C and Cause-I columns, is
// internal/mic's BenchmarkPairKernel.
func BenchmarkMIC(b *testing.B) {
	rng := NewRNG(1)
	n := 30
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] + rng.Normal(0, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MIC(xs, ys)
	}
}

// BenchmarkComputeMatrix measures one full association-matrix fill at the
// training scale of Table 1: 26 metrics × 30 samples = 325 MIC programmes.
// The assoc-func variant calls MIC per pair (sorting each metric's samples
// 25 times over); the batch variant prepares every metric once and scores
// pairs with pooled scratch buffers.
func BenchmarkComputeMatrix(b *testing.B) {
	rng := NewRNG(4)
	const m, n = 26, 30
	rows := make([][]float64, m)
	latent := make([]float64, n)
	for t := range latent {
		latent[t] = rng.Float64()
	}
	for i := range rows {
		rows[i] = make([]float64, n)
		for t := range rows[i] {
			if i < m/2 {
				rows[i][t] = float64(i+1)*latent[t] + rng.Normal(0, 0.05)
			} else {
				rows[i][t] = rng.Float64()
			}
		}
	}
	b.Run("assoc-func", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ComputeAssociationMatrix(rows, MIC); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch, err := NewMICBatch(rows, DefaultMICConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ComputeAssociationMatrixScored(m, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSparseRows synthesises an m-metric, n-tick window whose first
// `coupled` metrics follow one latent series; decoupled breaks metrics 0
// and 1 out of the couple (the fault window shape).
func benchSparseRows(rng *RNG, m, n, coupled int, decoupled bool) [][]float64 {
	latent := make([]float64, n)
	for t := range latent {
		latent[t] = rng.Float64()
	}
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		for t := range rows[i] {
			switch {
			case decoupled && i < 2:
				rows[i][t] = rng.Float64()
			case i < coupled:
				rows[i][t] = float64(i+1)*latent[t] + 0.1 + rng.Normal(0, 0.02)
			default:
				rows[i][t] = rng.Float64()
			}
		}
	}
	return rows
}

// BenchmarkDiagnoseSparse contrasts the dense violation pipeline (full
// m(m−1)/2 association-matrix fill, then the tuple) against the sparse
// tiered edge loop (trained pairs only, prescreen before the exact MIC) on
// the same trained set: 20 metrics, 30-tick fault window, invariants pinned
// to the 11-metric coupled block — 55 of 190 pairs, 29 % edge density. Both
// arms start from the raw window (batch preparation included), which is
// exactly what a diagnosis pays.
func BenchmarkDiagnoseSparse(b *testing.B) {
	const m, n, coupled = 20, 30, 11
	rng := NewRNG(9)
	var runs []*invariant.Matrix
	for r := 0; r < 4; r++ {
		batch, err := mic.NewBatch(benchSparseRows(rng.Fork(int64(r)), m, n, coupled, false), mic.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		mat, err := invariant.ComputeMatrixScored(m, batch)
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, mat)
	}
	selected, err := invariant.Select(runs, invariant.DefaultTau)
	if err != nil {
		b.Fatal(err)
	}
	// Pin the density: keep exactly the coupled-block pairs, so the sparse
	// arm's workload is 55/190 pairs regardless of which noise pairs
	// happened to look stable across the four training runs.
	base := make(map[invariant.Pair]float64)
	for p, v := range selected.Base {
		if p.J < coupled {
			base[p] = v
		}
	}
	set := invariant.NewSet(m, base)
	if want := coupled * (coupled - 1) / 2; set.Len() != want {
		b.Fatalf("trained %d coupled-block invariants, want %d", set.Len(), want)
	}
	probe := benchSparseRows(rng.Fork(99), m, n, coupled, true)

	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch, err := mic.NewBatch(probe, mic.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			mat, err := invariant.ComputeMatrixScored(m, batch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := set.Violations(mat, invariant.DefaultEpsilon); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		var st invariant.EdgeStats
		for i := 0; i < b.N; i++ {
			batch, err := mic.NewBatch(probe, mic.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			_, es, err := set.ComputeEdgesScored(batch, invariant.DefaultEpsilon)
			if err != nil {
				b.Fatal(err)
			}
			st = es
		}
		b.ReportMetric(float64(st.Screened), "screened-pairs")
		b.ReportMetric(float64(st.Exact), "exact-pairs")
	})
}

// signatureBenchDB builds the shared signature-retrieval benchmark fixture:
// an n-entry database of sparse random tuples for problems distinct problems
// under one operation context, plus a batch of 32 query tuples. One op is the
// whole batch: a single retrieval is microseconds, too short for a stable
// figure to gate on.
func signatureBenchDB(n, problems int, minScore float64) (*signature.DB, []signature.Tuple) {
	const tupleLen = 190 // one coordinate per trained pair at 20 metrics dense
	rng := NewRNG(11)
	mkTuple := func(ones int) signature.Tuple {
		t := make(signature.Tuple, tupleLen)
		for k := 0; k < ones; k++ {
			t[rng.Intn(tupleLen)] = true
		}
		return t
	}
	db := &signature.DB{MinScore: minScore}
	for i := 0; i < n; i++ {
		db.Add(signature.Entry{
			Tuple:    mkTuple(2 + rng.Intn(20)),
			Problem:  fmt.Sprintf("fault-%d", i%problems),
			IP:       "10.0.0.2",
			Workload: "wordcount",
		})
	}
	queries := make([]signature.Tuple, 32)
	for i := range queries {
		queries[i] = mkTuple(12)
	}
	return db, queries
}

// BenchmarkSignatureMatch measures filtered signature retrieval (MinScore
// 0.3, top 5) over growing databases, up to fleet-scale corpora (gossip
// replicates every peer's signature log). Every query is one scan of its
// scope's query-length bucket — each entry scored by popcount, or pruned by
// the MinScore upper bound its population count gives — so time is linear in
// n. The boolean linear-scan reference is BenchmarkSignatureLinearScan in
// internal/signature.
func BenchmarkSignatureMatch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureBenchDB(n, 14, 0.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := db.MatchMasked(q, nil, "10.0.0.2", "wordcount", Jaccard, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSignatureRank measures what a verdict's cause inference costs
// once the database has grown and nothing is filtered (MinScore 0, the
// default): every scoped entry is scored by the bucket scan and reduced to
// one winner per problem. Time is linear in n; allocs/op must not be — the
// per-entry materialisation this replaced allocated and sorted the scope.
func BenchmarkSignatureRank(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureBenchDB(n, 200, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := db.Rank(q, nil, "10.0.0.2", "wordcount", Jaccard, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSignatureRetrievalAllocs pins the per-query allocation counts of the two
// retrieval entry points on the benchmark fixture. Rank's count is independent
// of the database size, so a per-entry materialisation coming back (what Rank
// replaced) fails here on any machine, where a time budget would need a quiet
// one: 8 per query — the packed query, the per-problem reducer and the ranked
// result. A filtered Match (MinScore 0.3) allocates its selector and, for what
// little passes the floor, the result — never per scanned entry.
func TestSignatureRetrievalAllocs(t *testing.T) {
	perBatch := func(db *signature.DB, queries []signature.Tuple, retrieve func(*signature.DB, signature.Tuple) error) float64 {
		return testing.AllocsPerRun(5, func() {
			for _, q := range queries {
				if err := retrieve(db, q); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{1000, 20000} {
		db, queries := signatureBenchDB(n, 200, 0)
		got := perBatch(db, queries, func(db *signature.DB, q signature.Tuple) error {
			_, err := db.Rank(q, nil, "10.0.0.2", "wordcount", Jaccard, 5)
			return err
		})
		if want := float64(8 * len(queries)); got != want {
			t.Errorf("Rank over n=%d: %v allocs per %d queries, want %v", n, got, len(queries), want)
		}
	}
	for _, n := range []int{100, 1000} {
		db, queries := signatureBenchDB(n, 14, 0.3)
		got := perBatch(db, queries, func(db *signature.DB, q signature.Tuple) error {
			_, err := db.MatchMasked(q, nil, "10.0.0.2", "wordcount", Jaccard, 5)
			return err
		})
		if want := float64(len(queries)); got != want {
			t.Errorf("Match over n=%d: %v allocs per %d queries, want %v", n, got, len(queries), want)
		}
	}
}

// TestSignatureStoreFootprint pins what a stored signature costs in memory
// on the benchmark fixture's shape (20 000 entries of 190 coordinates in one
// context, built with Merge as a restore or a gossip replica builds it): the
// 24-byte packed tuple, three 4-byte columns, a 16-byte locator and the
// 8-byte fingerprint Merge dedups on, plus slice and map growth slack — and
// nothing per coordinate or per scope string. A second copy of the tuples or
// of the scope coming back (the store once held both) fails here. Merging
// an entry the store already holds allocates nothing.
func TestSignatureStoreFootprint(t *testing.T) {
	src, _ := signatureBenchDB(20000, 200, 0)
	entries := src.Entries()
	src = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := &signature.DB{}
	for _, e := range entries {
		db.Merge(e)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(db.Len())
	t.Logf("%d signatures, %.1f heap bytes each", db.Len(), perEntry)
	if perEntry > 120 {
		t.Errorf("%.1f heap bytes per stored signature, want at most 120", perEntry)
	}
	if allocs := testing.AllocsPerRun(100, func() { db.Merge(entries[len(entries)/2]) }); allocs != 0 {
		t.Errorf("Merge of a stored entry: %v allocs, want 0", allocs)
	}
}

// BenchmarkARXAssociation measures the ARX counterpart of BenchmarkMIC.
func BenchmarkARXAssociation(b *testing.B) {
	rng := NewRNG(2)
	n := 30
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] + rng.Normal(0, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ARXAssociation(xs, ys)
	}
}

// benchSynthTrace builds a synthetic metric window whose first `coupled`
// rows follow a shared latent series (stable invariants) and whose rest is
// noise — the same shape the core tests train on.
func benchSynthTrace(rng *RNG, nodeIP string, length, coupled int, decoupled bool) *MetricsTrace {
	tr := metrics.NewTrace(nodeIP, string(Wordcount))
	latent := make([]float64, length)
	for t := range latent {
		latent[t] = rng.Float64()
	}
	for t := 0; t < length; t++ {
		row := make([]float64, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			switch {
			case decoupled && m < 2:
				row[m] = rng.Float64() // broken invariants: the fault window
			case m < coupled:
				row[m] = float64(m+1)*latent[t] + 0.1 + rng.Normal(0, 0.02)
			default:
				row[m] = rng.Float64()
			}
		}
		if err := tr.Add(row, 1.0+0.3*latent[t]+rng.Normal(0, 0.02)); err != nil {
			panic(err)
		}
	}
	return tr
}

// benchTrainContext trains ctx's performance model and invariants on three
// synthetic 60-tick runs with eight coupled metrics.
func benchTrainContext(b *testing.B, sys *System, rng *RNG, ctx Context) {
	b.Helper()
	var runs []*MetricsTrace
	var cpis [][]float64
	for r := 0; r < 3; r++ {
		tr := benchSynthTrace(rng, ctx.IP, 60, 8, false)
		runs = append(runs, tr)
		cpis = append(cpis, tr.CPI)
	}
	if err := sys.TrainPerformanceModel(ctx, cpis); err != nil {
		b.Fatal(err)
	}
	if err := sys.TrainInvariants(ctx, runs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConcurrentDiagnose measures diagnosis throughput when GOMAXPROCS
// goroutines hammer 1, 2, 4 or 8 operation contexts. Each context is its own
// profile (own lock, own association cache), so throughput should scale near
// linearly with the context count: at contexts=1 every goroutine serialises
// on one profile, at contexts=8 they spread across the striped registry.
func BenchmarkConcurrentDiagnose(b *testing.B) {
	for _, nctx := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("contexts=%d", nctx), func(b *testing.B) {
			sys := New(DefaultConfig())
			rng := NewRNG(77)
			ctxs := make([]Context, nctx)
			wins := make([]*MetricsTrace, nctx)
			for i := range ctxs {
				ip := fmt.Sprintf("10.0.0.%d", i+2)
				ctxs[i] = Context{Workload: string(Wordcount), IP: ip}
				benchTrainContext(b, sys, rng, ctxs[i])
				wins[i] = benchSynthTrace(rng, ip, 30, 8, true)
				if err := sys.BuildSignature(ctxs[i], "cpu-hog", wins[i]); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Diagnose(ctxs[i], wins[i]); err != nil { // warm the cache
					b.Fatal(err)
				}
			}
			var next int64
			b.SetParallelism(8) // ≥8 goroutines even at GOMAXPROCS=1
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(atomic.AddInt64(&next, 1)-1) % nctx
				for pb.Next() {
					if _, err := sys.Diagnose(ctxs[i], wins[i]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkLoadFrom measures restart cost: one LoadFrom of a saved store of
// 16 contexts with 250 signatures each into a fresh system — the shape of the
// end-to-end benchmark's persist workload. server.New restores the store
// before any worker starts, so this time is daemon downtime. On a 2-core
// Xeon it reads ≈ 9.5 ms and 7 739 allocations per op (≈ 220 MB/s), against
// ≈ 23.6 ms and 88 677 when the invariant pairs decoded by reflection and
// each signature's tuple was parsed into a []bool, packed again and merged
// one entry at a time.
func BenchmarkLoadFrom(b *testing.B) {
	const contexts, sigsPerContext = 16, 250
	sys := New(DefaultConfig())
	rng := NewRNG(5)
	for i := 0; i < contexts; i++ {
		ip := fmt.Sprintf("10.0.0.%d", i+2)
		ctx := Context{Workload: string(Wordcount), IP: ip}
		benchTrainContext(b, sys, rng, ctx)
		set, err := sys.Invariants(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; sys.Profile(ctx).SignatureCount() < sigsPerContext; k++ {
			tuple := make(signature.Tuple, set.Len())
			for j := range tuple {
				tuple[j] = rng.Bernoulli(0.2)
			}
			sys.MergeSignature(signature.Entry{Tuple: tuple, Problem: fmt.Sprintf("fault-%d", k%18), IP: ip, Workload: ctx.Workload})
		}
	}
	dir := b.TempDir()
	if err := sys.SaveTo(dir); err != nil {
		b.Fatal(err)
	}
	rep, err := New(DefaultConfig()).LoadFrom(dir)
	if err != nil || rep.Partial() || rep.Signatures != contexts*sigsPerContext {
		b.Fatalf("restore: %v, %v", rep, err)
	}
	b.SetBytes(rep.Bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(DefaultConfig()).LoadFrom(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkARIMATrain measures detector training on typical CPI traces.
func BenchmarkARIMATrain(b *testing.B) {
	rng := NewRNG(3)
	trace := make([]float64, 60)
	for i := 1; i < len(trace); i++ {
		trace[i] = 1 + 0.5*(trace[i-1]-1) + rng.Normal(0, 0.02)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AutoFitARIMA(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterTick measures the simulator's per-tick cost with a full
// complement of running tasks.
func BenchmarkClusterTick(b *testing.B) {
	c := NewCluster(4, 1)
	spec := NewBatchJob(Wordcount, WorkloadParams{InputMB: 15 * 1024, RNG: NewRNG(2)})
	c.Submit(spec)
	for i := 0; i < 5; i++ {
		c.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// --- Extension benches ----------------------------------------------------

// BenchmarkExtensionMultiFault measures top-K retrieval under two
// simultaneous faults (the paper's sketched multi-fault extension).
func BenchmarkExtensionMultiFault(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var hit1 float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunMultiFault(workload.Wordcount, 4)
		if err != nil {
			b.Fatal(err)
		}
		hit1 = res.HitAt1
	}
	b.ReportMetric(hit1, "hit@1")
}

// BenchmarkExtensionSignatureGrowth measures accuracy as the signature base
// grows from 2 to full fault coverage.
func BenchmarkExtensionSignatureGrowth(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var full float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunSignatureGrowth(workload.Wordcount, 2)
		if err != nil {
			b.Fatal(err)
		}
		full = res.Points[len(res.Points)-1].KnownAccuracy
	}
	b.ReportMetric(full, "full-coverage-accuracy")
}

// BenchmarkExtensionContrast computes the signature-contrast calibration
// table and reports the count of positive-margin faults.
func BenchmarkExtensionContrast(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var positive float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunContrast(workload.Wordcount, 3)
		if err != nil {
			b.Fatal(err)
		}
		pos := 0
		for _, row := range res.Rows {
			if row.Margin() > 0 {
				pos++
			}
		}
		positive = float64(pos) / float64(len(res.Rows))
	}
	b.ReportMetric(positive, "positive-margin-frac")
}
