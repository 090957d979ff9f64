package core

import (
	"math"
	"strings"
	"testing"

	"invarnetx/internal/arima"
	"invarnetx/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	good := []struct {
		name string
		cfg  Config
	}{
		{"defaults", DefaultConfig()},
		{"zero (defaults at New)", Config{}},
		{"uncapped cache sentinel", mut(func(c *Config) { c.AssocCacheSize = -1 })},
	}
	for _, tc := range good {
		if err := tc.cfg.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
	}

	bad := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"NaN epsilon", mut(func(c *Config) { c.Epsilon = math.NaN() }), "Epsilon"},
		{"negative epsilon", mut(func(c *Config) { c.Epsilon = -0.1 }), "Epsilon"},
		{"epsilon above one", mut(func(c *Config) { c.Epsilon = 1.5 }), "Epsilon"},
		{"Inf tau", mut(func(c *Config) { c.Tau = math.Inf(1) }), "Tau"},
		{"negative beta", mut(func(c *Config) { c.Detect.Beta = -2 }), "Beta"},
		{"NaN beta", mut(func(c *Config) { c.Detect.Beta = math.NaN() }), "Beta"},
		{"negative consecutive", mut(func(c *Config) { c.Detect.Consecutive = -1 }), "Consecutive"},
		{"absurd consecutive", mut(func(c *Config) { c.Detect.Consecutive = maxConsecutive + 1 }), "Consecutive"},
		{"negative topk", mut(func(c *Config) { c.TopK = -1 }), "TopK"},
		{"NaN sig min score", mut(func(c *Config) { c.SigMinScore = math.NaN() }), "SigMinScore"},
		{"sig min score above one", mut(func(c *Config) { c.SigMinScore = 1.5 }), "SigMinScore"},
		{"cache over clamp", mut(func(c *Config) { c.AssocCacheSize = maxAssocCacheSize + 1 }), "AssocCacheSize"},
		{"unknown rule", mut(func(c *Config) { c.Detect.Rule = 97 }), "rule"},
		{"unknown similarity", mut(func(c *Config) { c.Similarity = 97 }), "similarity"},
		{"NaN lifecycle drift", mut(func(c *Config) { c.Lifecycle.Drift = math.NaN() }), "Drift"},
		{"Inf lifecycle threshold", mut(func(c *Config) { c.Lifecycle.Threshold = math.Inf(1) }), "Threshold"},
		{"negative decay alpha", mut(func(c *Config) { c.Lifecycle.DecayAlpha = -1 }), "DecayAlpha"},
		{"decay alpha above one", mut(func(c *Config) { c.Lifecycle.DecayAlpha = 2 }), "DecayAlpha"},
		{"NaN decay alpha", mut(func(c *Config) { c.Lifecycle.DecayAlpha = math.NaN() }), "DecayAlpha"},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestNewPanicsOnInvalidConfig: no System may exist around a config that
// would corrupt every later call.
func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a NaN Epsilon without panicking")
		}
	}()
	cfg := DefaultConfig()
	cfg.Epsilon = math.NaN()
	New(cfg)
}

// TestNewDefaultsZeroConfig: a zero config still defaults to the paper
// parameters (zero means "default", not "off"), the whole detector config
// included, and the ARIMA order search that runs is the one Config reports:
// CPI traces with a slow ramp, which a search allowed to difference would
// fit with d >= 1, train the same d = 0 model as under DefaultConfig.
func TestNewDefaultsZeroConfig(t *testing.T) {
	s := New(Config{})
	got, want := s.Config(), DefaultConfig()
	if got.Epsilon != want.Epsilon || got.Tau != want.Tau || got.Detect != want.Detect {
		t.Errorf("zero config defaulted to %+v, want paper defaults %+v", got, want)
	}

	rng := stats.NewRNG(7)
	cpis := make([][]float64, 6)
	for i := range cpis {
		for tick := 0; tick < traceLen; tick++ {
			cpis[i] = append(cpis[i], 1+0.005*float64(tick)+rng.Normal(0, 0.02))
		}
	}
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	var orders [2]arima.Order
	for i, sys := range []*System{s, New(DefaultConfig())} {
		if err := sys.TrainPerformanceModel(ctx, cpis); err != nil {
			t.Fatal(err)
		}
		d, err := sys.Detector(ctx)
		if err != nil {
			t.Fatal(err)
		}
		orders[i] = d.Model.Order
	}
	if orders[0] != orders[1] || orders[0].D != 0 {
		t.Errorf("zero config trained %v, DefaultConfig %v; want the same d = 0 order", orders[0], orders[1])
	}
}

// TestSigMinScorePropagatesToProfiles: the SigMinScore knob must land on
// each profile's signature database — a knob that validates but never
// reaches the DB would silently leave every report unfiltered.
func TestSigMinScorePropagatesToProfiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SigMinScore = 0.4
	sys := New(cfg)
	p := sys.Profile(Context{Workload: "wc", IP: "10.0.0.1"})
	if got := p.sigs.MinScore; got != 0.4 {
		t.Fatalf("profile signature MinScore = %v, want 0.4", got)
	}
	if got := New(DefaultConfig()).Profile(Context{Workload: "wc", IP: "n"}).sigs.MinScore; got != 0 {
		t.Fatalf("default profile signature MinScore = %v, want 0 (paper behaviour: rank all)", got)
	}
}
