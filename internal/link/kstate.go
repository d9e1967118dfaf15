package link

import (
	"fmt"
	"math"
	"strconv"
)

// kstateTol is the row-stochasticity tolerance applied to k-state
// parameters: rows assembled from empirical transition frequencies (or
// from 1-p complements) are stochastic only up to float rounding.
const kstateTol = 1e-9

// KState is an immutable k-state Markov fading-channel link model
// (Florenzan Reyes et al. 2021 style): a slot-granularity Markov chain
// over k channel states with a per-state packet success probability. The
// paper's two-state UP/DOWN model is the k=2 special case with success
// probabilities {1, 0} (see FromModel); richer chains capture graded
// fading levels — deep fade, shadowed, clear.
type KState struct {
	k     int
	trans []float64 // row-major k×k slot transition matrix
	succ  []float64 // per-state packet success probability
	pi    []float64 // stationary state distribution
}

// NewKState validates a k-state fading model: trans must be a k×k matrix
// with entries in [0,1] and rows summing to 1 (within tolerance), succ a
// length-k vector of per-state success probabilities in [0,1], and the
// chain must have a unique stationary distribution (one recurrent class).
func NewKState(trans [][]float64, succ []float64) (*KState, error) {
	k := len(succ)
	if k < 1 {
		return nil, fmt.Errorf("link: k-state model needs at least one state")
	}
	if len(trans) != k {
		return nil, fmt.Errorf("link: %d success probabilities but %d transition rows", k, len(trans))
	}
	m := &KState{k: k, trans: make([]float64, k*k), succ: make([]float64, k)}
	for i, row := range trans {
		if len(row) != k {
			return nil, fmt.Errorf("link: transition row %d has %d entries, want %d", i, len(row), k)
		}
		sum := 0.0
		for j, p := range row {
			if math.IsNaN(p) || p < 0 || p > 1 {
				return nil, fmt.Errorf("link: transition probability %v at (%d,%d) out of [0,1]", p, i, j)
			}
			m.trans[i*k+j] = p
			sum += p
		}
		if math.Abs(sum-1) > kstateTol {
			return nil, fmt.Errorf("link: transition row %d sums to %v, want 1", i, sum)
		}
	}
	for i, s := range succ {
		if math.IsNaN(s) || s < 0 || s > 1 {
			return nil, fmt.Errorf("link: state %d success probability %v out of [0,1]", i, s)
		}
		m.succ[i] = s
	}
	pi, err := stationaryDist(m.trans, k)
	if err != nil {
		return nil, err
	}
	m.pi = pi
	return m, nil
}

// FromModel embeds the classic two-state model as the k=2 fading chain:
// state 0 is UP (success probability 1), state 1 is DOWN (success
// probability 0), with the model's p_fl/p_rc transition structure. The
// embedding is exact; the refactor's no-regression oracle pins it to the
// original model at 1e-12 across every layer.
func FromModel(m Model) (*KState, error) {
	return NewKState(
		[][]float64{
			{1 - m.pfl, m.pfl},
			{m.prc, 1 - m.prc},
		},
		[]float64{1, 0},
	)
}

// NewUniformMixing builds the symmetric bursty chain used by the topology
// generator's fading draws: every state keeps its state with probability
// stay and spreads the remaining mass uniformly over the other k-1
// states. The matrix is doubly stochastic, so the stationary distribution
// is uniform and the stationary availability is the plain mean of succ;
// stay tunes burstiness without moving the mean.
func NewUniformMixing(stay float64, succ []float64) (*KState, error) {
	k := len(succ)
	if k < 2 {
		return nil, fmt.Errorf("link: uniform-mixing chain needs at least two states, got %d", k)
	}
	if math.IsNaN(stay) || stay < 0 || stay > 1 {
		return nil, fmt.Errorf("link: stay probability %v out of [0,1]", stay)
	}
	off := (1 - stay) / float64(k-1)
	trans := make([][]float64, k)
	for i := range trans {
		row := make([]float64, k)
		for j := range row {
			if i == j {
				row[j] = stay
			} else {
				row[j] = off
			}
		}
		trans[i] = row
	}
	return NewKState(trans, succ)
}

// States returns k.
func (m *KState) States() int { return m.k }

// SuccessProbs returns a copy of the per-state success probabilities.
func (m *KState) SuccessProbs() []float64 {
	return append([]float64(nil), m.succ...)
}

// TransitionMatrix returns a copy of the k×k slot transition matrix.
func (m *KState) TransitionMatrix() [][]float64 {
	out := make([][]float64, m.k)
	for i := range out {
		out[i] = append([]float64(nil), m.trans[i*m.k:(i+1)*m.k]...)
	}
	return out
}

// StationaryDist returns a copy of the stationary state distribution.
func (m *KState) StationaryDist() []float64 {
	return append([]float64(nil), m.pi...)
}

// SteadyUp returns the stationary per-slot packet success probability:
// the stationary state distribution weighted by the per-state success
// probabilities — the k-state generalization of paper Eq. 4.
func (m *KState) SteadyUp() float64 {
	up := 0.0
	for i, p := range m.pi {
		up += p * m.succ[i]
	}
	if up > 1 {
		up = 1
	}
	return up
}

// Steady returns the availability of a link whose chain has reached its
// stationary distribution before the reporting interval begins.
func (m *KState) Steady() Availability {
	steady := m.SteadyUp()
	return func(int) float64 { return steady }
}

// AppendKey appends the canonical "k:<states>:<trans...>:<succ...>"
// encoding. The "k" tag keeps k-state encodings disjoint from the
// two-state "g" encodings even for the k=2 embedding, so a scenario
// declared through a fading block never shares a cache key with one
// declared through p_fl/p_rc — their solver paths differ even when their
// results provably agree.
func (m *KState) AppendKey(b []byte) []byte {
	b = append(b, 'k', ':')
	b = strconv.AppendInt(b, int64(m.k), 10)
	for _, p := range m.trans {
		b = append(b, ':')
		b = strconv.AppendFloat(b, p, 'b', -1, 64)
	}
	for _, s := range m.succ {
		b = append(b, ':')
		b = strconv.AppendFloat(b, s, 'b', -1, 64)
	}
	return b
}

// stationaryDist solves pi P = pi, sum(pi) = 1 by Gaussian elimination
// with partial pivoting (k is small: fading models have a handful of
// states). The k-1 balance equations plus the normalization constraint
// have a unique solution exactly when the chain has a single recurrent
// class; a (near-)singular system is reported as an error.
func stationaryDist(trans []float64, k int) ([]float64, error) {
	// a is the augmented [A | b] system: rows 0..k-2 are balance
	// equations sum_i pi_i (P[i][j] - delta_ij) = 0, row k-1 is sum = 1.
	n := k + 1
	a := make([]float64, k*n)
	for j := 0; j < k-1; j++ {
		for i := 0; i < k; i++ {
			a[j*n+i] = trans[i*k+j]
			if i == j {
				a[j*n+i] -= 1
			}
		}
	}
	for i := 0; i < k; i++ {
		a[(k-1)*n+i] = 1
	}
	a[(k-1)*n+k] = 1

	const pivotTol = 1e-12
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[pivot*n+col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot*n+col]) < pivotTol {
			return nil, fmt.Errorf("link: k-state chain has no unique stationary distribution (reducible transition matrix)")
		}
		if pivot != col {
			for c := col; c <= k; c++ {
				a[pivot*n+c], a[col*n+c] = a[col*n+c], a[pivot*n+c]
			}
		}
		for r := col + 1; r < k; r++ {
			f := a[r*n+col] / a[col*n+col]
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for c := col + 1; c <= k; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
		}
	}
	pi := make([]float64, k)
	for row := k - 1; row >= 0; row-- {
		v := a[row*n+k]
		for c := row + 1; c < k; c++ {
			v -= a[row*n+c] * pi[c]
		}
		pi[row] = v / a[row*n+row]
	}
	// Clamp elimination dust and renormalize so pi is a distribution.
	sum := 0.0
	for i, p := range pi {
		if p < 0 {
			if p < -kstateTol {
				return nil, fmt.Errorf("link: stationary solve produced probability %v for state %d", p, i)
			}
			pi[i] = 0
		}
		sum += pi[i]
	}
	if sum <= 0 {
		return nil, fmt.Errorf("link: stationary solve produced an empty distribution")
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}
