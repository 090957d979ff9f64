package core

import (
	"math"
	"reflect"
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
		{"cache over clamp", mut(func(c *Config) { c.AssocCacheSize = maxAssocCacheSize + 1 }), "AssocCacheSize"},
		{"unknown similarity", mut(func(c *Config) { c.Similarity = 97 }), "similarity"},
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

// TestNewDefaultsZeroConfig: a zero config is the paper's (zero means
// "default", not "off"): every field New reports equals DefaultConfig's
// through New, and the ARIMA order search that runs is the paper's: CPI
// traces with a slow ramp train the same model as under DefaultConfig.
func TestNewDefaultsZeroConfig(t *testing.T) {
	s := New(Config{})
	got, want := s.Config(), New(DefaultConfig()).Config()
	if !isStockMIC(got.Assoc) || !isStockMIC(want.Assoc) {
		t.Errorf("Assoc is not the stock MIC: zero config %v, DefaultConfig %v", isStockMIC(got.Assoc), isStockMIC(want.Assoc))
	}
	got.Assoc, want.Assoc = nil, nil // func values compare only through isStockMIC
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero config defaulted to %+v, want DefaultConfig's %+v", got, want)
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
	if orders[0] != orders[1] {
		t.Errorf("zero config trained %v, DefaultConfig %v; want the same order", orders[0], orders[1])
	}
}
