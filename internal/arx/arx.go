// Package arx implements the AutoRegressive model with eXogenous inputs used
// by Jiang et al. ("Discovering likely invariants of distributed transaction
// systems...", ICAC 2006; TKDE 2007) — the baseline InvarNet-X compares
// against in Figs. 9 and 10 and Table 1 of the paper.
//
// A pairwise ARX(n,m,k) model relates an input metric u to an output metric
// y:
//
//	y(t) = a_1 y(t-1) + ... + a_n y(t-n)
//	     + b_0 u(t-k) + ... + b_m u(t-k-m) + c
//
// estimated by least squares. Model quality is the normalised fitness score
//
//	F(θ) = 1 − ‖y − ŷ‖ / ‖y − ȳ‖
//
// and a metric pair is a candidate invariant when the best fitness over a
// small order search exceeds a threshold. The search over (n, m, k) orders
// for every one of the M(M−1)/2 metric pairs is what makes ARX invariant
// construction roughly an order of magnitude more expensive than MIC's
// single dynamic programme per pair (Table 1).
package arx

import (
	"errors"
	"fmt"
	"math"

	"invarnetx/internal/stats"
)

// ErrTooShort is returned when the series cannot support the model orders.
var ErrTooShort = errors.New("arx: series too short")

// Order is an ARX model order.
type Order struct {
	N int // output lags
	M int // extra input lags (b_0..b_m)
	K int // input delay
}

func (o Order) String() string { return fmt.Sprintf("ARX(%d,%d,%d)", o.N, o.M, o.K) }

// Model is a fitted pairwise ARX model.
type Model struct {
	Order     Order
	A         []float64 // output-lag coefficients a_1..a_n
	B         []float64 // input coefficients b_0..b_m
	Intercept float64
	Fitness   float64 // F(θ) on the training data, clamped to [0, 1]
}

// maxOrder bounds bestFit's search: every order (n, m, k) ≤ (3, 3, 3). It
// mirrors the order search of Jiang's evaluation, which sweeps the model
// structure per metric pair — the cost that makes ARX invariant construction
// roughly an order of magnitude more expensive than a single MIC dynamic
// programme (paper Table 1).
const maxOrder = 3

// fit estimates an ARX model of fixed order relating input u to output y.
func fit(u, y []float64, order Order) (*Model, error) {
	if len(u) != len(y) {
		return nil, fmt.Errorf("arx: length mismatch %d vs %d", len(u), len(y))
	}
	if order.N < 0 || order.M < 0 || order.K < 0 {
		return nil, fmt.Errorf("arx: invalid order %v", order)
	}
	lead := order.N
	if d := order.K + order.M; d > lead {
		lead = d
	}
	p := order.N + order.M + 2 // a's + b's + intercept
	if len(y)-lead < p+2 {
		return nil, ErrTooShort
	}
	var x [][]float64
	var target []float64
	for t := lead; t < len(y); t++ {
		row := make([]float64, 0, p)
		for i := 1; i <= order.N; i++ {
			row = append(row, y[t-i])
		}
		for j := 0; j <= order.M; j++ {
			row = append(row, u[t-order.K-j])
		}
		row = append(row, 1)
		x = append(x, row)
		target = append(target, y[t])
	}
	beta, err := stats.LeastSquares(x, target)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Order:     order,
		A:         append([]float64(nil), beta[:order.N]...),
		B:         append([]float64(nil), beta[order.N:order.N+order.M+1]...),
		Intercept: beta[len(beta)-1],
	}
	m.Fitness = m.fitness(u, y)
	return m, nil
}

// Predict returns the one-step-ahead predictions of y given u, aligned so
// prediction i corresponds to y[lead+i].
func (m *Model) Predict(u, y []float64) ([]float64, error) {
	if len(u) != len(y) {
		return nil, fmt.Errorf("arx: length mismatch %d vs %d", len(u), len(y))
	}
	lead := m.Order.N
	if d := m.Order.K + m.Order.M; d > lead {
		lead = d
	}
	if len(y) <= lead {
		return nil, ErrTooShort
	}
	preds := make([]float64, 0, len(y)-lead)
	for t := lead; t < len(y); t++ {
		v := m.Intercept
		for i := 1; i <= m.Order.N; i++ {
			v += m.A[i-1] * y[t-i]
		}
		for j := 0; j <= m.Order.M; j++ {
			v += m.B[j] * u[t-m.Order.K-j]
		}
		preds = append(preds, v)
	}
	return preds, nil
}

// fitness computes F(θ) on (u, y), clamped to [0, 1]. A constant output
// series scores 0: there is nothing to explain.
func (m *Model) fitness(u, y []float64) float64 {
	preds, err := m.Predict(u, y)
	if err != nil {
		return 0
	}
	lead := len(y) - len(preds)
	var num, den float64
	mean := stats.MustMean(y[lead:])
	for i, p := range preds {
		obs := y[lead+i]
		num += (obs - p) * (obs - p)
		den += (obs - mean) * (obs - mean)
	}
	if den == 0 {
		return 0
	}
	f := 1 - math.Sqrt(num)/math.Sqrt(den)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// bestFit searches the orders up to maxOrder and returns the model with the
// highest fitness for u → y.
func bestFit(u, y []float64) (*Model, error) {
	var best *Model
	for n := 0; n <= maxOrder; n++ {
		for mm := 0; mm <= maxOrder; mm++ {
			for k := 0; k <= maxOrder; k++ {
				m, err := fit(u, y, Order{N: n, M: mm, K: k})
				if err != nil {
					continue
				}
				if best == nil || m.Fitness > best.Fitness {
					best = m
				}
			}
		}
	}
	if best == nil {
		return nil, ErrTooShort
	}
	return best, nil
}

// Association returns a symmetric association score in [0, 1] for a metric
// pair: the better fitness of the two directions u→y and y→u under bestFit's
// order search. It is the ARX counterpart of mic.MIC and plugs into the same
// invariant-selection algorithm for the comparison experiments. Degenerate
// inputs score 0.
func Association(a, b []float64) float64 {
	var best float64
	if m, err := bestFit(a, b); err == nil && m.Fitness > best {
		best = m.Fitness
	}
	if m, err := bestFit(b, a); err == nil && m.Fitness > best {
		best = m.Fitness
	}
	return best
}
