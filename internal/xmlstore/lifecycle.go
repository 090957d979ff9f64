package xmlstore

import "fmt"

// The edge states a lifecycle section records.
const (
	StateLive        = "live"
	StateQuarantined = "quarantined"
)

// LifecycleEdge is one trained edge's persisted health and shadow state:
// the drift-detection series (observations, violations, EWMA rate and
// change-point accumulator) plus, for quarantined edges, the decayed
// candidate baseline and its side-by-side evaluation tally. It is also the
// one in-memory snapshot shape of an edge (core's Profile.LifecycleEdges).
type LifecycleEdge struct {
	I     int     `xml:"i,attr"`
	J     int     `xml:"j,attr"`
	State string  `xml:"state,attr"`
	Obs   int64   `xml:"obs,attr"`
	Viol  int64   `xml:"viol,attr"`
	Rate  float64 `xml:"rate,attr"`
	Score float64 `xml:"score,attr"`

	ShadowBase  float64 `xml:"shadow-base,attr"`
	ShadowN     int64   `xml:"shadow-n,attr"`
	ShadowEvals int     `xml:"shadow-evals,attr"`
	ShadowViol  int     `xml:"shadow-viol,attr"`
	LiveViol    int     `xml:"live-viol,attr"`
}

// LifecycleFile is the persisted drift-lifecycle state of one profile's
// live model generation. It is saved in the same file as the invariant set
// it describes; Edges is empty when that set was not the lifecycle's at
// save time (a promotion or retrain raced the save), and only the counters
// persist.
type LifecycleFile struct {
	Generation uint64          `xml:"generation"`
	Observed   int64           `xml:"observed"`
	Promotions int64           `xml:"promotions"`
	Rollbacks  int64           `xml:"rollbacks"`
	Edges      []LifecycleEdge `xml:"edges>edge"`
}

// Validate checks the basic shape of the edge list: a valid pair, and
// counts no run of the lifecycle writes — negative, or more violations than
// the windows they were counted over, in the health series or in the shadow
// tally. The semantic checks (pair membership, state names) belong to the
// restoring layer, which knows the invariant set.
func (f LifecycleFile) Validate() error {
	for i, e := range f.Edges {
		if e.I < 0 || e.J < 0 || e.I >= e.J {
			return fmt.Errorf("xmlstore: lifecycle edge %d has invalid pair (%d,%d)", i, e.I, e.J)
		}
		if e.Obs < 0 || e.Viol < 0 || e.Viol > e.Obs {
			return fmt.Errorf("xmlstore: lifecycle edge %d has inconsistent counts (%d violations of %d observations)", i, e.Viol, e.Obs)
		}
		if e.ShadowViol < 0 || e.LiveViol < 0 || e.ShadowViol > e.ShadowEvals || e.LiveViol > e.ShadowEvals {
			return fmt.Errorf("xmlstore: lifecycle edge %d has an inconsistent shadow tally (%d shadow and %d live violations of %d evaluations)", i, e.ShadowViol, e.LiveViol, e.ShadowEvals)
		}
	}
	return nil
}
