package main

import (
	"testing"

	"invarnetx/internal/faults"
	"invarnetx/internal/workload"
)

// smallGen exercises every generator feature at a size that runs in well
// under a second.
var smallGen = genSpec{
	types:     []workload.Type{workload.Wordcount},
	faults:    []faults.Kind{faults.CPUHog, faults.MemHog},
	sigRuns:   1,
	heldOut:   1,
	maskP:     0.03,
	synthSigs: 5,
}

func labels(in *inputs) []string {
	var out []string
	for _, c := range in.ctxs {
		for _, v := range c.verdicts {
			out = append(out, c.ctx.String()+"/"+v.label)
		}
	}
	return out
}

// The same seed must put byte-identical frames, labels, masks and synthetic
// signatures on the wire; another seed must not.
func TestGenerateIsDeterministic(t *testing.T) {
	gen := func(seed int64) (*inputs, uint64) {
		in, err := generate(seed, smallGen)
		if err != nil {
			t.Fatal(err)
		}
		d, err := in.digest()
		if err != nil {
			t.Fatal(err)
		}
		return in, d
	}
	a, da := gen(7)
	b, db := gen(7)
	c, dc := gen(8)
	if da != db {
		t.Errorf("seed 7 twice: digests %016x and %016x differ", da, db)
	}
	if da == dc {
		t.Errorf("seeds 7 and 8 share digest %016x", da)
	}
	la, lb := labels(a), labels(b)
	if len(la) != 4*len(smallGen.faults) {
		t.Fatalf("%d held-out windows, want one per (fault, node)", len(la))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Errorf("label %d: %s vs %s", i, la[i], lb[i])
		}
	}
	if len(c.ctxs) != 4 {
		t.Errorf("%d contexts, want the 4 slave nodes", len(c.ctxs))
	}
	masked := 0
	for _, ctx := range a.ctxs {
		if len(ctx.sigs) != len(smallGen.faults) || len(ctx.synth) != smallGen.synthSigs {
			t.Errorf("%v: %d signature windows, %d synthetic signatures", ctx.ctx, len(ctx.sigs), len(ctx.synth))
		}
		for _, v := range ctx.verdicts {
			for _, s := range v.samples {
				if s.Valid != nil {
					masked++
				}
			}
		}
		for _, s := range ctx.sigs {
			for _, smp := range s.samples {
				if smp.Valid != nil {
					t.Fatalf("signature windows must stay clean")
				}
			}
		}
	}
	if masked == 0 {
		t.Errorf("maskP %.2f masked nothing", smallGen.maskP)
	}
}

// The trained system is the same at every seed — training and signature runs
// come from stateSeed — unless the training runs are the workload's traffic.
func TestSeedDrivesTrafficNotState(t *testing.T) {
	state := func(in *inputs) (cpi, sig float64) {
		c := in.ctxs[0]
		return c.cpis[0][0], c.sigs[0].samples[0].CPI
	}
	gen := func(seed int64, gs genSpec) *inputs {
		in, err := generate(seed, gs)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := gen(7, smallGen), gen(8, smallGen)
	ac, as := state(a)
	bc, bs := state(b)
	if ac != bc || as != bs {
		t.Errorf("seeds 7 and 8 train on different runs: CPI %v vs %v, signature window %v vs %v", ac, bc, as, bs)
	}
	if a.ctxs[0].replay[0].CPI == b.ctxs[0].replay[0].CPI || a.ctxs[0].verdicts[0].samples[0].CPI == b.ctxs[0].verdicts[0].samples[0].CPI {
		t.Errorf("seeds 7 and 8 replay or diagnose the same runs")
	}
	onSeed := smallGen
	onSeed.trainOnSeed = true
	c, d := gen(7, onSeed), gen(8, onSeed)
	if cc, _ := state(c); cc != c.ctxs[0].replay[0].CPI {
		t.Errorf("trainOnSeed: the training runs must be the replayed ones")
	}
	if cc, _ := state(c); cc == ac {
		t.Errorf("trainOnSeed at seed 7 trains on stateSeed's runs")
	}
	if cc, dc := c.ctxs[0].cpis[0][0], d.ctxs[0].cpis[0][0]; cc == dc {
		t.Errorf("trainOnSeed: seeds 7 and 8 train on the same runs")
	}
}
