package core

import (
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// benchRuns builds n synthTrace windows of 26 metrics × 30 ticks, the first
// eight metrics coupled to one load curve: the training set of one context.
func benchRuns(rng *stats.RNG, n int) (runs []*metrics.Trace, cpis [][]float64) {
	for i := 0; i < n; i++ {
		tr := synthTrace(rng.Fork(int64(i)), 30, 8, nil)
		runs = append(runs, tr)
		cpis = append(cpis, tr.CPI)
	}
	return runs, cpis
}

// BenchmarkTrainContext times training one context as the offline path
// does: the ARIMA performance model, then Algorithm 1 over 8 normal runs of
// 26×30, each op on a fresh system so no score is reused.
func BenchmarkTrainContext(b *testing.B) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	runs, cpis := benchRuns(stats.NewRNG(2800), 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(DefaultConfig())
		if err := s.TrainPerformanceModel(ctx, cpis); err != nil {
			b.Fatal(err)
		}
		if err := s.TrainInvariants(ctx, runs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerdictUncached times one verdict with the report cache off
// (AssocCacheSize -1, as Table 1 sets it): Profile.Violations over a pool of
// held-out 30-tick windows, half of them with a fault that detaches three of
// the coupled metrics, so every op prepares a window and scores every
// trained pair exactly. pairs/op is the pairs the edge pass scored per
// verdict.
func BenchmarkVerdictUncached(b *testing.B) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := New(Config{AssocCacheSize: -1})
	runs, cpis := benchRuns(stats.NewRNG(2801), 8)
	if err := s.TrainPerformanceModel(ctx, cpis); err != nil {
		b.Fatal(err)
	}
	if err := s.TrainInvariants(ctx, runs); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(2802)
	pool := make([]*metrics.Trace, 16)
	for i := range pool {
		var decouple map[int]bool
		if i%2 == 1 {
			decouple = map[int]bool{i % 8: true, (i + 3) % 8: true, (i + 5) % 8: true}
		}
		pool[i] = synthTrace(rng.Fork(int64(i)), 30, 8, decouple)
	}
	p := s.Profile(ctx)
	before := p.Stats().Sparse.Exact
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Violations(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Stats().Sparse.Exact-before)/float64(b.N), "pairs/op")
}
