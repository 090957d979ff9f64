package core

import (
	"bytes"
	"encoding/xml"
	"math"
	"testing"

	"invarnetx/internal/xmlstore"
)

// fuzzFloats are the float values a fuzzed edge draws from: ordinary ones,
// both zeros, a negative, the non-finite values and the extremes.
var fuzzFloats = []float64{0, math.Copysign(0, -1), 0.1, 0.25, 0.42, 1.5, 2.7, -5, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}

// fuzzStates are the state strings a fuzzed edge draws from.
var fuzzStates = []string{xmlstore.StateLive, xmlstore.StateQuarantined, "zombie", ""}

// fuzzEdgeBytes is the size of one encoded edge (see fuzzSection).
const fuzzEdgeBytes = 12

// fuzzSection decodes fuzz bytes into a lifecycle section: a 2-byte counter
// header, then one edge per 12 bytes — pair, state, counts, rate, sum, shadow
// base, shadow n and tally — whose values range over valid, unknown and
// malformed alike. Trailing bytes short of an edge are ignored.
func fuzzSection(data []byte) *xmlstore.LifecycleFile {
	f := &xmlstore.LifecycleFile{}
	if len(data) >= 2 {
		f.Generation, f.Observed = uint64(data[0]), int64(int8(data[1]))
		data = data[2:]
	}
	for ; len(data) >= fuzzEdgeBytes; data = data[fuzzEdgeBytes:] {
		b := data[:fuzzEdgeBytes]
		f.Edges = append(f.Edges, xmlstore.LifecycleEdge{
			I:           int(b[0]%6) - 1,
			J:           int(b[1]%6) - 1,
			State:       fuzzStates[int(b[2])%len(fuzzStates)],
			Obs:         int64(b[3] % 16),
			Viol:        int64(b[4] % 16),
			Rate:        fuzzFloats[int(b[5])%len(fuzzFloats)],
			Score:       fuzzFloats[int(b[6])%len(fuzzFloats)],
			ShadowBase:  fuzzFloats[int(b[7])%len(fuzzFloats)],
			ShadowN:     int64(int8(b[8])),
			ShadowEvals: int(int8(b[9])),
			ShadowViol:  int(int8(b[10])),
			LiveViol:    int(int8(b[11])),
		})
	}
	return f
}

// FuzzLifecycleRestore feeds restoredLifecycle arbitrary edge lists over a
// fixed set: a profile file's lifecycle section is bytes this process did
// not necessarily write. Every input is refused, or restores a lifecycle
// with shadow state on quarantined edges only, a clamped sum and a shadow
// tally of at most as many violations as evaluations, none negative, whose
// re-saved section restores to the same section, byte for byte once
// marshalled.
func FuzzLifecycleRestore(f *testing.F) {
	edgeOf := func(i, j, state, obs, viol, rate, sum, base, n, evals, sv, lv byte) []byte {
		return []byte{i, j, state, obs, viol, rate, sum, base, n, evals, sv, lv}
	}
	// Pairs are encoded +1: (0,1) is 1,2; (0,2) 1,3; (1,3) 2,4.
	seeds := [][]byte{
		nil,
		{3, 9},
		append([]byte{3, 9}, edgeOf(1, 3, 1, 9, 5, 4, 5, 4, 7, 2, 1, 2)...),
		append(append(append([]byte{1, 4},
			edgeOf(1, 2, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0)...),
			edgeOf(1, 3, 1, 4, 4, 3, 6, 3, 3, 1, 0, 1)...),
			edgeOf(2, 4, 1, 4, 2, 8, 8, 8, 0, 0, 0, 0)...),
		append([]byte{1, 1}, edgeOf(3, 4, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)...),          // unknown pair (2,3)
		append([]byte{1, 1}, edgeOf(1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0)...),          // unknown state
		append([]byte{1, 1}, edgeOf(1, 2, 0, 1, 5, 0, 0, 0, 0, 0, 0, 0)...),          // more violations than observations
		append([]byte{1, 1}, edgeOf(1, 3, 1, 2, 1, 8, 9, 9, 0xff, 0x80, 3, 0x7f)...), // NaN, Inf, negative counts
		append(append([]byte{1, 1},
			edgeOf(1, 3, 1, 2, 1, 4, 4, 4, 2, 1, 1, 1)...),
			edgeOf(1, 3, 0, 2, 1, 4, 4, 4, 2, 1, 1, 1)...), // the same pair twice
		append([]byte{1, 1}, edgeOf(1, 3, 1, 9, 5, 4, 5, 4, 7, 8, 0x9c, 2)...), // negative shadow tally
		append([]byte{1, 1}, edgeOf(1, 3, 1, 9, 5, 4, 5, 4, 7, 2, 1, 0xff)...), // negative live tally
		append([]byte{1, 1}, edgeOf(1, 3, 1, 9, 5, 4, 5, 4, 7, 0x80, 0, 0)...), // negative evaluation count
		append([]byte{1, 1}, edgeOf(1, 3, 1, 9, 5, 4, 5, 4, 7, 2, 3, 1)...),    // more shadow violations than evaluations
		append([]byte{1, 1}, edgeOf(1, 3, 1, 9, 5, 4, 5, 4, 7, 2, 1, 3)...),    // more live violations than evaluations
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set := edgeSet()
		l, err := restoredLifecycle(set, fuzzSection(data))
		if err != nil {
			return
		}
		for k, e := range l.edges {
			if !e.quarantined && (e.num != 0 || e.den != 0 || e.n != 0 || e.evals != 0 || e.shadowViol != 0 || e.liveViol != 0) {
				t.Fatalf("live edge %d restored with shadow state %+v", k, e)
			}
			if !(e.sum >= 0) || math.IsInf(e.sum, 0) {
				t.Fatalf("edge %d restored with sum %v", k, e.sum)
			}
			if e.shadowViol < 0 || e.liveViol < 0 || e.shadowViol > e.evals || e.liveViol > e.evals {
				t.Fatalf("edge %d restored with shadow tally %d/%d of %d evaluations", k, e.shadowViol, e.liveViol, e.evals)
			}
		}
		saved := (&Profile{lc: l}).lifecycleSection(set)
		l2, err := restoredLifecycle(set, saved)
		if err != nil {
			t.Fatalf("re-saved section refused: %v", err)
		}
		again := (&Profile{lc: l2}).lifecycleSection(set)
		a, errA := xml.Marshal(saved)
		b, errB := xml.Marshal(again)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("re-saved section does not restore to itself:\n%s\n%s\n(%v, %v)", a, b, errA, errB)
		}
	})
}
