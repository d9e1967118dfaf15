package pathmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"wirelesshart/internal/link"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/stats"
)

// This file holds the independent oracles the path model is checked
// against: the negative-binomial closed form for homogeneous steady-state
// paths, the fundamental-matrix absorption solve, goal-absorbing bounded
// reachability, a reference Algorithm 1 that builds the chain by name, and
// refKernel, the step loop p(t) = p(t-1) P that all the chain oracles run.

// closedForm describes a homogeneous steady-state path: hops links with
// per-hop success probability ps, Is cycles, the final hop in frame slot
// lastSlot of an fup-slot uplink frame followed by an fdown-slot downlink
// frame.
type closedForm struct {
	hops       int
	ps         float64
	is         int
	lastSlot   int
	fup, fdown int
}

// cycleProbs returns the negative-binomial cycle probability function
// g(i) = C(n+i-2, i-1) ps^n (1-ps)^(i-1) for i = 1..Is.
func (p closedForm) cycleProbs(t *testing.T) []float64 {
	t.Helper()
	out := make([]float64, p.is)
	for i := range out {
		g, err := stats.NegBinomialCycles(p.hops, p.ps, i+1)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = g
	}
	return out
}

// reachability returns R = sum_i g(i).
func (p closedForm) reachability(t *testing.T) float64 {
	var r float64
	for _, g := range p.cycleProbs(t) {
		r += g
	}
	return r
}

// expectedDelayMS returns E[tau]: arrivals in cycle i have delay
// (a0 + (i-1)(Fup+Fdown)) slots, weighted by g(i)/R.
func (p closedForm) expectedDelayMS(t *testing.T) float64 {
	var r, sum float64
	for i, g := range p.cycleProbs(t) {
		sum += g * float64(p.lastSlot+i*(p.fup+p.fdown)) * schedule.SlotDurationMS
		r += g
	}
	return sum / r
}

// expectedAttempts returns the expected number of transmission attempts
// over the reporting interval by a per-cycle recursion on the hops left: a
// message with k hops left makes 1 + ps + ... + ps^(k-1) attempts in one
// cycle and advances j < k hops with probability ps^j (1-ps), or arrives.
func (p closedForm) expectedAttempts() float64 {
	n, ps := p.hops, p.ps
	perCycle := make([]float64, n+1) // perCycle[k] = sum_{j<k} ps^j
	pow := 1.0
	for k := 1; k <= n; k++ {
		perCycle[k] = perCycle[k-1] + pow
		pow *= ps
	}
	left := make([]float64, n+1) // left[k] = P(k hops left at cycle start)
	left[n] = 1
	var total float64
	for c := 0; c < p.is; c++ {
		next := make([]float64, n+1)
		for k := 1; k <= n; k++ {
			total += left[k] * perCycle[k]
			pj := 1.0
			for j := 0; j < k; j++ {
				next[k-j] += left[k] * pj * (1 - ps)
				pj *= ps
			}
		}
		left = next
	}
	return total
}

// solvedDelayMS converts a solved path's cycle probabilities into E[tau]
// the same way the closed form does.
func solvedDelayMS(res *Result, fdown int) float64 {
	var sum float64
	for i, g := range res.CycleProbs {
		sum += g * float64(res.GoalAges[i]+i*fdown) * schedule.SlotDurationMS
	}
	return sum / res.Reachability()
}

// refKernelTol is the row-stochasticity tolerance of every chain the
// oracles step.
const refKernelTol = 1e-9

// refKernel is the oracles' transition matrix: an n-state chain in
// compressed-sparse-row form, n = len(rowPtr)-1, that scatters each
// state's mass along its row, absorbing states included as self-loops.
type refKernel struct {
	rowPtr, col []int
	val         []float64
}

// newRefKernel checks a CSR layout and wraps it: the row pointers run
// from 0 to the edge count without decreasing, every edge targets a
// state, and every row is a probability distribution within refKernelTol.
// The slices are retained, not copied.
func newRefKernel(rowPtr, col []int, val []float64) (*refKernel, error) {
	n := len(rowPtr) - 1
	if n < 0 || len(col) != len(val) || rowPtr[0] != 0 || rowPtr[n] != len(col) {
		return nil, fmt.Errorf("row pointers %v do not span %d edges with %d values", rowPtr, len(col), len(val))
	}
	for id := 0; id < n; id++ {
		if rowPtr[id] > rowPtr[id+1] {
			return nil, fmt.Errorf("row pointer decreases at state %d", id)
		}
	}
	k := &refKernel{rowPtr: rowPtr, col: col, val: val}
	for id := 0; id < n; id++ {
		cols, vals := k.row(id)
		var sum float64
		for e, to := range cols {
			if to < 0 || to >= n {
				return nil, fmt.Errorf("state %d edge to %d out of [0,%d)", id, to, n)
			}
			if p := vals[e]; math.IsNaN(p) || p < -refKernelTol || p > 1+refKernelTol {
				return nil, fmt.Errorf("state %d value %v out of [0,1]", id, p)
			}
			sum += vals[e]
		}
		if math.Abs(sum-1) > refKernelTol {
			return nil, fmt.Errorf("state %d outgoing probabilities sum to %v", id, sum)
		}
	}
	return k, nil
}

func (k *refKernel) numStates() int { return len(k.rowPtr) - 1 }

// row returns views of state id's out-edges.
func (k *refKernel) row(id int) (cols []int, vals []float64) {
	lo, hi := k.rowPtr[id], k.rowPtr[id+1]
	return k.col[lo:hi], k.val[lo:hi]
}

// step sets dst = src P, scattering the states' mass in id order and each
// row's in edge order. dst and src must be distinct.
func (k *refKernel) step(dst, src []float64) {
	clear(dst)
	for id, mass := range src {
		if mass == 0 {
			continue
		}
		cols, vals := k.row(id)
		for e, to := range cols {
			dst[to] += mass * vals[e]
		}
	}
}

// transient runs p(s+1) = p(s) P for steps steps from a point mass on
// start, calls observe(s, p(s)) for every s = 0..steps, and returns
// p(steps). The vector observe sees is valid only during the call.
func (k *refKernel) transient(start, steps int, observe func(s int, p []float64)) []float64 {
	cur, next := make([]float64, k.numStates()), make([]float64, k.numStates())
	cur[start] = 1
	observe(0, cur)
	for s := 1; s <= steps; s++ {
		k.step(next, cur)
		cur, next = next, cur
		observe(s, cur)
	}
	return cur
}

// mustKernel builds m's explicit chain and checks it as a refKernel: the
// matrix the oracles below read.
func mustKernel(t *testing.T, m *Model) (*chain, *refKernel) {
	t.Helper()
	c := m.chain()
	k, err := newRefKernel(c.rowPtr, c.col, c.val)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	return c, k
}

// TestRefKernelRejectsBadLayouts pins the checks every oracle chain goes
// through, so a malformed chain cannot pass as a reference.
func TestRefKernelRejectsBadLayouts(t *testing.T) {
	for name, tc := range map[string]struct {
		rowPtr, col []int
		val         []float64
	}{
		"short rowPtr":         {[]int{}, nil, nil},
		"col/val mismatch":     {[]int{0, 1}, []int{0}, nil},
		"rowPtr not from zero": {[]int{1, 1}, []int{0}, []float64{1}},
		"rowPtr not to nnz":    {[]int{0, 1}, []int{0, 0}, []float64{1, 0}},
		"decreasing rowPtr":    {[]int{0, 2, 1, 3}, []int{0, 1, 2}, []float64{0.5, 0.5, 1}},
		"target out of range":  {[]int{0, 1}, []int{1}, []float64{1}},
		"negative target":      {[]int{0, 1}, []int{-1}, []float64{1}},
		"value above one":      {[]int{0, 2}, []int{0, 0}, []float64{1.5, -0.5}},
		"NaN value":            {[]int{0, 2}, []int{0, 0}, []float64{math.NaN(), 1}},
		"row sums below one":   {[]int{0, 2}, []int{0, 0}, []float64{0.5, 0.4}},
		"empty row":            {[]int{0, 1, 1}, []int{0}, []float64{1}},
	} {
		if _, err := newRefKernel(tc.rowPtr, tc.col, tc.val); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := newRefKernel([]int{0, 2, 3}, []int{1, 0, 1}, []float64{0.25, 0.75, 1}); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
}

// absorption is the fundamental-matrix oracle: it solves
// n = e_start (I-Q)^-1 for the bound chain by dense elimination, returning
// the expected visits to every transient state and the absorption
// probability of every absorbing state (both indexed by state id).
func absorption(t *testing.T, m *Model) (visits, absorbed []float64) {
	t.Helper()
	c, k := mustKernel(t, m)
	n := m.NumStates()
	idx := make([]int, n)
	var transients []int
	for id := range idx {
		idx[id] = -1
		// The absorbing states are exactly the ids <= discard = G.
		if id > len(c.ages) {
			idx[id] = len(transients)
			transients = append(transients, id)
		}
	}
	// a is (I-Q)^T augmented with the right-hand side e_start.
	nt := len(transients)
	a := make([][]float64, nt)
	for i := range a {
		a[i] = make([]float64, nt+1)
		a[i][i] = 1
	}
	for i, id := range transients {
		cols, vals := k.row(id)
		for e, to := range cols {
			if j := idx[to]; j >= 0 {
				a[j][i] -= vals[e]
			}
		}
	}
	a[idx[c.initial]][nt] = 1
	x := solveDense(t, a)

	visits = make([]float64, n)
	absorbed = make([]float64, n)
	for i, id := range transients {
		visits[id] = x[i]
		cols, vals := k.row(id)
		for e, to := range cols {
			if idx[to] < 0 {
				absorbed[to] += x[i] * vals[e]
			}
		}
	}
	return visits, absorbed
}

// solveDense solves the augmented system [A | b] in place by Gaussian
// elimination with partial pivoting.
func solveDense(t *testing.T, a [][]float64) []float64 {
	t.Helper()
	n := len(a)
	for c := 0; c < n; c++ {
		piv := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[piv][c]) {
				piv = r
			}
		}
		if a[piv][c] == 0 {
			t.Fatalf("singular system at column %d", c)
		}
		a[c], a[piv] = a[piv], a[c]
		for r := c + 1; r < n; r++ {
			f := a[r][c] / a[c][c]
			for k := c; k <= n; k++ {
				a[r][k] -= f * a[c][k]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := a[r][n]
		for k := r + 1; k < n; k++ {
			s -= a[r][k] * x[k]
		}
		x[r] = s / a[r][r]
	}
	return x
}

// boundedReach is the PCTL bounded-until oracle P[F<=k goals]: mass
// entering a goal is moved to the reached total, so the result is the
// probability of having visited a goal within k steps.
func boundedReach(t *testing.T, m *Model, k int) float64 {
	t.Helper()
	c, kern := mustKernel(t, m)
	n := m.NumStates()
	p, next := make([]float64, n), make([]float64, n)
	p[c.initial] = 1
	var reached float64
	// The goals are the ids 0..G-1.
	absorbGoals := func() {
		for g := range c.ages {
			reached += p[g]
			p[g] = 0
		}
	}
	absorbGoals()
	for s := 0; s < k; s++ {
		kern.step(next, p)
		p, next = next, p
		absorbGoals()
	}
	return reached
}

// TestSolveMatchesClosedForm compares Solve with the negative-binomial
// closed form on a table of homogeneous steady-state paths: cycle
// probabilities, R and E[tau] at 1e-12, attempts at 1e-9.
func TestSolveMatchesClosedForm(t *testing.T) {
	for hops := 1; hops <= 4; hops++ {
		for _, ps := range []float64{0.5, 0.75, 0.83, 0.95, 1} {
			for _, is := range []int{1, 2, 4} {
				fup := hops + 2
				slots := make([]int, hops)
				links := make([]link.Availability, hops)
				for h := range slots {
					slots[h] = h + 1
					links[h] = func(int) float64 { return ps }
				}
				m, err := Build(Config{Slots: slots, Fup: fup, Is: is, Links: links})
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Solve()
				if err != nil {
					t.Fatal(err)
				}
				cf := closedForm{hops: hops, ps: ps, is: is, lastSlot: hops, fup: fup, fdown: fup}
				for i, g := range cf.cycleProbs(t) {
					if d := math.Abs(res.CycleProbs[i] - g); d > 1e-12 {
						t.Errorf("hops=%d ps=%v Is=%d cycle %d: Solve %v, closed form %v", hops, ps, is, i+1, res.CycleProbs[i], g)
					}
				}
				if d := math.Abs(res.Reachability() - cf.reachability(t)); d > 1e-12 {
					t.Errorf("hops=%d ps=%v Is=%d: R = %v, closed form %v", hops, ps, is, res.Reachability(), cf.reachability(t))
				}
				if d := math.Abs(solvedDelayMS(res, fup) - cf.expectedDelayMS(t)); d > 1e-12 {
					t.Errorf("hops=%d ps=%v Is=%d: E[tau] = %v, closed form %v", hops, ps, is, solvedDelayMS(res, fup), cf.expectedDelayMS(t))
				}
				if d := math.Abs(res.ExpectedAttempts - cf.expectedAttempts()); d > 1e-9 {
					t.Errorf("hops=%d ps=%v Is=%d: attempts = %v, closed form %v", hops, ps, is, res.ExpectedAttempts, cf.expectedAttempts())
				}
				if ps == 1 && res.ExpectedAttempts != float64(hops) {
					t.Errorf("hops=%d Is=%d perfect links: attempts = %v, want %d", hops, is, res.ExpectedAttempts, hops)
				}
			}
		}
	}
}

// TestExpectedAttemptsMatchesDTMC checks Solve's attempt accounting
// against the closed-form recursion on random homogeneous steady-state
// paths built from two-state link models.
func TestExpectedAttemptsMatchesDTMC(t *testing.T) {
	f := func(availRaw, hopsRaw, isRaw uint8) bool {
		avail := 0.5 + float64(availRaw%45)/100
		hops := int(hopsRaw%4) + 1
		is := int(isRaw%4) + 1
		lm, err := link.FromAvailability(avail, 0.9)
		if err != nil {
			return false
		}
		slots := make([]int, hops)
		links := make([]link.Availability, hops)
		for h := range slots {
			slots[h] = h + 1
			links[h] = lm.Steady()
		}
		m, err := Build(Config{Slots: slots, Fup: hops + 1, Is: is, Links: links})
		if err != nil {
			return false
		}
		res, err := m.Solve()
		if err != nil {
			return false
		}
		cf := closedForm{hops: hops, ps: avail, is: is, lastSlot: hops, fup: hops + 1, fdown: hops + 1}
		return math.Abs(res.ExpectedAttempts-cf.expectedAttempts()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExpectedAttemptsPerfectLinks pins attempts == hops on perfect links,
// so the exact utilization is hops / (Is * Fup).
func TestExpectedAttemptsPerfectLinks(t *testing.T) {
	perfect := func(int) float64 { return 1 }
	m, err := Build(Config{Slots: []int{1, 2, 3}, Fup: 5, Is: 4, Links: []link.Availability{perfect, perfect, perfect}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cf := closedForm{hops: 3, ps: 1, is: 4, lastSlot: 3, fup: 5, fdown: 5}
	if res.ExpectedAttempts != 3 || cf.expectedAttempts() != 3 {
		t.Errorf("perfect links attempts: Solve %v, closed form %v, want 3", res.ExpectedAttempts, cf.expectedAttempts())
	}
	if u := res.ExpectedAttempts / float64(res.Is*res.Fup); math.Abs(u-3.0/20) > 1e-12 {
		t.Errorf("U = %v, want 0.15", u)
	}
}

// exampleClosedForm is the Section V-A path: 3 hops at ps = 0.75, Is = 4,
// final hop in slot 7 of a 7-slot uplink and 7-slot downlink frame.
var exampleClosedForm = closedForm{hops: 3, ps: 0.75, is: 4, lastSlot: 7, fup: 7, fdown: 7}

func TestCycleProbsFig6(t *testing.T) {
	g := exampleClosedForm.cycleProbs(t)
	want := []float64{0.4219, 0.3164, 0.1582, 0.06592}
	for i, w := range want {
		if math.Abs(g[i]-w) > 5e-5 {
			t.Errorf("g[%d] = %v, want %v", i, g[i], w)
		}
	}
	m, err := Build(examplePath(t, 0.75, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if d := math.Abs(res.CycleProbs[i] - g[i]); d > 1e-12 {
			t.Errorf("cycle %d: Solve %v, closed form %v", i+1, res.CycleProbs[i], g[i])
		}
	}
}

func TestReachabilityAndDelayExample(t *testing.T) {
	if r := exampleClosedForm.reachability(t); math.Abs(r-0.9624) > 5e-5 {
		t.Errorf("R = %v, want 0.9624", r)
	}
	if d := exampleClosedForm.expectedDelayMS(t); math.Abs(d-190.8) > 0.1 {
		t.Errorf("E[tau] = %v, want 190.8", d)
	}
}

func TestSolveMatchesAbsorptionAnalysis(t *testing.T) {
	// The fundamental-matrix absorption probabilities must give the same
	// goal and discard probabilities as the iterative transient solution:
	// the chain is a finite DAG, so all mass absorbs.
	m, err := Build(examplePath(t, 0.75, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	visits, absorbed := absorption(t, m)
	// The goals are the ids 0..G-1 and the discard state is G.
	discard := len(res.CycleProbs)
	for goal, p := range res.CycleProbs {
		if math.Abs(absorbed[goal]-p) > 1e-12 {
			t.Errorf("goal %d: absorption %v vs transient %v", goal, absorbed[goal], p)
		}
	}
	if math.Abs(absorbed[discard]-res.DiscardProb) > 1e-12 {
		t.Errorf("discard: absorption %v vs transient %v", absorbed[discard], res.DiscardProb)
	}
	// Expected steps to absorption cannot exceed the horizon.
	var steps float64
	for _, v := range visits {
		steps += v
	}
	if steps <= 0 || steps > 28 {
		t.Errorf("E[steps to absorption] = %v, want in (0, 28]", steps)
	}
}

func TestExpectedAttemptsMatchesFundamentalMatrix(t *testing.T) {
	// In the time-indexed DAG every transient state is visited at most
	// once, so the fundamental-matrix expected visits are visit
	// probabilities; summing them over transmitting states must equal
	// Solve's attempt count.
	m, err := Build(examplePath(t, 0.75, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	visits, _ := absorption(t, m)
	// The transmitting states are the rows with a success and a failure
	// edge.
	_, k := mustKernel(t, m)
	var attempts float64
	for id, v := range visits {
		if cols, _ := k.row(id); len(cols) == 2 {
			attempts += v
		}
	}
	if math.Abs(attempts-res.ExpectedAttempts) > 1e-9 {
		t.Errorf("fundamental-matrix attempts %v vs transient %v", attempts, res.ExpectedAttempts)
	}
}

func TestSolveMatchesBoundedReachability(t *testing.T) {
	// R equals the PCTL bounded-until P[F<=Is*Fup goals] on the chain.
	m, err := Build(examplePath(t, 0.75, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := boundedReach(t, m, 28); math.Abs(got-res.Reachability()) > 1e-12 {
		t.Errorf("bounded reachability %v vs Solve %v", got, res.Reachability())
	}
	// A tighter bound cuts off the later cycles: k = 14 keeps only
	// cycles 1 and 2.
	want := res.CycleProbs[0] + res.CycleProbs[1]
	if got := boundedReach(t, m, 14); math.Abs(got-want) > 1e-12 {
		t.Errorf("P[F<=14] = %v, want %v", got, want)
	}
}

// refChain is the reference builder's labelled-edge container: named
// states in insertion order, each with its out-edges in insertion order.
// An absorbing state keeps its mass through a self-loop.
type refChain struct {
	names     []string
	index     map[string]int
	out       [][]refEdge
	absorbing []bool
}

type refEdge struct {
	to int
	p  float64
}

// addState adds a state with a unique name and returns its id.
func (c *refChain) addState(name string) (int, error) {
	if _, ok := c.index[name]; ok {
		return 0, fmt.Errorf("duplicate state %q", name)
	}
	id := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = id
	c.out = append(c.out, nil)
	c.absorbing = append(c.absorbing, false)
	return id, nil
}

func (c *refChain) markAbsorbing(id int) { c.absorbing[id] = true }

func (c *refChain) addTransition(from, to int, p float64) {
	c.out[from] = append(c.out[from], refEdge{to: to, p: p})
}

// compile emits the chain's CSR layout as a checked refKernel.
func (c *refChain) compile() (*refKernel, error) {
	rowPtr := make([]int, len(c.names)+1)
	var col []int
	var val []float64
	for id, edges := range c.out {
		if c.absorbing[id] {
			edges = []refEdge{{to: id, p: 1}}
		}
		for _, e := range edges {
			col = append(col, e.to)
			val = append(val, e.p)
		}
		rowPtr[id+1] = len(col)
	}
	return newRefKernel(rowPtr, col, val)
}

// refStructure is the reference Algorithm 1: the recursive builder that
// names every state, inserts it into a refChain, adds its edges one
// transition at a time with the scenario's availabilities and compiles the
// validated chain as a refKernel. A model's chain must reproduce its state
// order, CSR layout and values exactly.
type refStructure struct {
	chain    *refChain
	kernel   *refKernel
	initial  int
	discard  int
	goals    []int
	transmit []int // transmitting states, ascending id
}

func buildReference(slots []int, fup, is, ttl int, avails []link.Availability) (*refStructure, error) {
	cfg := Config{Slots: slots, Fup: fup, Is: is, TTL: ttl}
	if err := cfg.validateGeometry(); err != nil {
		return nil, err
	}
	n := len(slots)
	horizon := is * fup
	effTTL := cfg.ttl()

	r := &refStructure{chain: &refChain{index: map[string]int{}}}
	a0 := slots[n-1]
	for i := 1; i <= is; i++ {
		age := a0 + (i-1)*fup
		if age > effTTL {
			break
		}
		id, err := r.chain.addState(fmt.Sprintf("R%d", age))
		if err != nil {
			return nil, err
		}
		r.chain.markAbsorbing(id)
		r.goals = append(r.goals, id)
	}
	discard, err := r.chain.addState("Discard")
	if err != nil {
		return nil, err
	}
	r.chain.markAbsorbing(discard)
	r.discard = discard

	type key struct{ t, h int }
	ids := map[key]int{}
	var construct func(t, h int) (int, error)
	construct = func(t, h int) (int, error) {
		if t >= effTTL || t >= horizon {
			return discard, nil
		}
		k := key{t: t, h: h}
		if id, ok := ids[k]; ok {
			return id, nil
		}
		id, err := r.chain.addState(stateName(t, h, n))
		if err != nil {
			return 0, err
		}
		ids[k] = id

		next := t + 1
		frameSlot := (next-1)%fup + 1
		if frameSlot == slots[h] {
			r.transmit = append(r.transmit, id)
			ps := avails[h](next)
			if h == n-1 {
				gi := (next - slots[n-1]) / fup
				if gi < 0 || gi >= len(r.goals) {
					return 0, fmt.Errorf("no goal for arrival age %d", next)
				}
				r.chain.addTransition(id, r.goals[gi], ps)
			} else {
				succ, err := construct(next, h+1)
				if err != nil {
					return 0, err
				}
				r.chain.addTransition(id, succ, ps)
			}
			fail, err := construct(next, h)
			if err != nil {
				return 0, err
			}
			r.chain.addTransition(id, fail, 1-ps)
			return id, nil
		}
		nx, err := construct(next, h)
		if err != nil {
			return 0, err
		}
		r.chain.addTransition(id, nx, 1)
		return id, nil
	}

	if r.initial, err = construct(0, 0); err != nil {
		return nil, err
	}
	sort.Ints(r.transmit)
	if r.kernel, err = r.chain.compile(); err != nil {
		return nil, err
	}
	return r, nil
}

// solve runs the transient analysis on the reference kernel as the
// step-by-step recursion p(t) = p(t-1) P, summing attempts over the
// transmitting states in ascending id order at every age before the
// horizon.
func (r *refStructure) solve(horizon int) ([]float64, float64) {
	return stepLoop(r.kernel, r.initial, r.transmit, horizon, nil)
}

// stepLoop is the kernel step loop oracle: it runs p(t) = p(t-1) P for
// horizon steps from a point mass on initial and returns p(horizon) and
// the expected attempts, the mass summed over the transmit states (in
// slice order) at every age before the horizon. A non-nil observe sees
// every p(t), t = 0..horizon.
func stepLoop(k *refKernel, initial int, transmit []int, horizon int, observe func(t int, p []float64)) ([]float64, float64) {
	var attempts float64
	p := k.transient(initial, horizon, func(t int, dist []float64) {
		if t < horizon {
			for _, id := range transmit {
				attempts += dist[id]
			}
		}
		if observe != nil {
			observe(t, dist)
		}
	})
	return p, attempts
}

// slotLayouts returns the distinct strictly increasing hop-slot layouts
// the differential test covers in a fup-slot frame: packed first, packed
// last, spread evenly, and alternating from slot 2.
func slotLayouts(hops, fup int) [][]int {
	var out [][]int
	seen := map[string]bool{}
	add := func(slots []int) {
		prev := 0
		for _, s := range slots {
			if s <= prev || s > fup {
				return
			}
			prev = s
		}
		if k := fmt.Sprint(slots); !seen[k] {
			seen[k] = true
			out = append(out, slots)
		}
	}
	first, last, spread, alt := make([]int, hops), make([]int, hops), make([]int, hops), make([]int, hops)
	for h := 0; h < hops; h++ {
		first[h] = h + 1
		last[h] = fup - hops + h + 1
		spread[h] = (h+1)*fup/hops - (fup/hops - 1)
		alt[h] = 2*h + 2
	}
	for _, l := range [][]int{first, last, spread, alt} {
		add(l)
	}
	return out
}

// testAvails returns a fractional, slot-varying availability per hop.
func testAvails(hops int) []link.Availability {
	avails := make([]link.Availability, hops)
	for h := range avails {
		avails[h] = func(slot int) float64 { return float64((slot*7+h*3)%10+1) / 11 }
	}
	return avails
}

// TestBuildStructureMatchesReference is the differential test of a bound
// model's chain against the reference Algorithm 1 over Fup 1-12 x hops
// 1-4 x Is 1-5 x TTL in {0, 1, Fup, Is*Fup-1, Is*Fup} x slot layouts. The
// state count, row pointers, columns, values, the initial, goal and
// discard ids, every rendered state name and the solved outputs must be
// bit-identical.
func TestBuildStructureMatchesReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	cases := 0
	for fup := 1; fup <= 12; fup++ {
		for hops := 1; hops <= 4 && hops <= fup; hops++ {
			avails := testAvails(hops)
			for _, slots := range slotLayouts(hops, fup) {
				for is := 1; is <= 5; is++ {
					ttls := map[int]bool{}
					for _, ttl := range []int{0, 1, fup, is*fup - 1, is * fup} {
						if ttls[ttl] {
							continue
						}
						ttls[ttl] = true
						cases++
						name := fmt.Sprintf("slots=%v fup=%d is=%d ttl=%d", slots, fup, is, ttl)
						m, err := Build(Config{Slots: slots, Fup: fup, Is: is, TTL: ttl, Links: avails})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, gk := mustKernel(t, m)
						want, err := buildReference(slots, fup, is, ttl, avails)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						if m.NumStates() != want.kernel.numStates() || gk.numStates() != want.kernel.numStates() ||
							len(gk.col) != len(want.kernel.col) {
							t.Fatalf("%s: %d (structure %d) states / %d edges, reference %d / %d", name,
								gk.numStates(), m.NumStates(), len(gk.col), want.kernel.numStates(), len(want.kernel.col))
						}
						// Equal columns row by row give equal row spans.
						for id := 0; id < gk.numStates(); id++ {
							gc, gv := gk.row(id)
							wc, wv := want.kernel.row(id)
							if !slices.Equal(gc, wc) {
								t.Fatalf("%s: row %d cols %v, reference cols %v", name, id, gc, wc)
							}
							for e := range gv {
								if !same(gv[e], wv[e]) {
									t.Fatalf("%s: row %d values %v, reference %v", name, id, gv, wv)
								}
							}
							absorbing := len(gc) == 1 && gc[0] == id
							if got.label(id) != want.chain.names[id] || absorbing != want.chain.absorbing[id] {
								t.Fatalf("%s: state %d is %q (absorbing %v), reference %q (%v)", name, id,
									got.label(id), absorbing, want.chain.names[id], want.chain.absorbing[id])
							}
						}
						goals := make([]int, len(got.ages))
						for g := range goals {
							goals[g] = g
						}
						if got.initial != want.initial || len(got.ages) != want.discard || !slices.Equal(goals, want.goals) {
							t.Fatalf("%s: initial/discard/goals %d/%d/%v, reference %d/%d/%v", name,
								got.initial, len(got.ages), goals, want.initial, want.discard, want.goals)
						}

						res, err := m.Solve()
						if err != nil {
							t.Fatalf("%s: Solve: %v", name, err)
						}
						p, attempts := want.solve(is * fup)
						for i, g := range want.goals {
							if !same(res.CycleProbs[i], p[g]) {
								t.Errorf("%s: cycle %d %v, reference %v", name, i+1, res.CycleProbs[i], p[g])
							}
						}
						if !same(res.DiscardProb, p[want.discard]) || !same(res.ExpectedAttempts, attempts) {
							t.Errorf("%s: discard/attempts %v/%v, reference %v/%v", name,
								res.DiscardProb, res.ExpectedAttempts, p[want.discard], attempts)
						}
					}
				}
			}
		}
	}
	t.Logf("%d geometries", cases)
}

// checkAgainstStepLoop solves m by its recursion and by stepping its
// explicit chain Is*Fup times, and reports any cycle, discard or attempt
// value, or any goal trajectory entry at ages 0..Is*Fup (the paper's
// Fig. 6), that is not bit-identical.
func checkAgainstStepLoop(t *testing.T, label string, m *Model) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	res, err := m.Solve()
	if err != nil {
		t.Fatalf("%s: Solve: %v", label, err)
	}
	traj, err := m.GoalTrajectories()
	if err != nil {
		t.Fatalf("%s: GoalTrajectories: %v", label, err)
	}
	c, k := mustKernel(t, m)
	var transmit []int
	for id := 0; id < k.numStates(); id++ {
		if cols, _ := k.row(id); len(cols) == 2 {
			transmit = append(transmit, id)
		}
	}
	horizon := m.cfg.Is * m.cfg.Fup
	for g := range traj {
		if len(traj[g]) != horizon+1 {
			t.Fatalf("%s: goal %d trajectory has %d ages, want %d", label, g, len(traj[g]), horizon+1)
		}
	}
	p, attempts := stepLoop(k, c.initial, transmit, horizon, func(age int, dist []float64) {
		for g := range c.ages {
			if !same(traj[g][age], dist[g]) {
				t.Errorf("%s: goal %d at age %d: trajectory %v, step loop %v", label, g, age, traj[g][age], dist[g])
			}
		}
	})
	for i := range c.ages {
		if !same(res.CycleProbs[i], p[i]) {
			t.Errorf("%s: cycle %d %v, step loop %v", label, i+1, res.CycleProbs[i], p[i])
		}
	}
	if discard := len(c.ages); !same(res.DiscardProb, p[discard]) || !same(res.ExpectedAttempts, attempts) {
		t.Errorf("%s: discard/attempts %v/%v, step loop %v/%v", label,
			res.DiscardProb, res.ExpectedAttempts, p[discard], attempts)
	}
}

// TestSolveMatchesStepLoop pins the recursion against the step-by-step
// recursion p(t) = p(t-1) P on the reference chain beyond the reference
// grid: long horizons (Is 8, 16 and 64 in frames of up to 20 slots), a TTL
// that ends between two cycles, availabilities of exactly 0 and 1 (edges
// that carry no mass) and a DownDuring failure window. Cycle, discard and
// attempt values must be bit-identical.
func TestSolveMatchesStepLoop(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	lm, err := link.FromAvailability(0.83, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	window, err := lm.DownDuring(10, 75, lm.Steady())
	if err != nil {
		t.Fatal(err)
	}
	// zeroOne is 0 in every fourth slot, 1 in the next and fractional
	// otherwise.
	zeroOne := func(slot int) float64 {
		switch slot % 4 {
		case 0:
			return 0
		case 1:
			return 1
		}
		return 0.6
	}
	steady := func(hops int) []link.Availability {
		avails := make([]link.Availability, hops)
		for h := range avails {
			avails[h] = lm.Steady()
		}
		return avails
	}
	scenarios := map[string]func(hops int) []link.Availability{
		"steady": steady,
		"zero-one": func(hops int) []link.Availability {
			avails := steady(hops)
			avails[0], avails[hops-1] = zeroOne, zeroOne
			return avails
		},
		"window": func(hops int) []link.Availability {
			avails := steady(hops)
			avails[hops/2] = window
			return avails
		},
	}
	for _, geo := range []struct {
		slots []int
		fup   int
	}{
		{[]int{3, 6, 7}, 7},
		{[]int{2, 5, 9, 14}, 20},
		{[]int{1, 4, 8, 12, 16, 20}, 20},
	} {
		for _, is := range []int{8, 16, 64} {
			for _, ttl := range []int{0, is/2*geo.fup + geo.fup/2} {
				st, err := BuildStructure(geo.slots, geo.fup, is, ttl)
				if err != nil {
					t.Fatal(err)
				}
				for name, avails := range scenarios {
					label := fmt.Sprintf("slots=%v fup=%d is=%d ttl=%d %s", geo.slots, geo.fup, is, ttl, name)
					av := avails(len(geo.slots))
					m, err := st.Bind(av)
					if err != nil {
						t.Fatalf("%s: Bind: %v", label, err)
					}
					res, err := m.Solve()
					if err != nil {
						t.Fatalf("%s: Solve: %v", label, err)
					}
					ref, err := buildReference(geo.slots, geo.fup, is, ttl, av)
					if err != nil {
						t.Fatal(err)
					}
					p, attempts := ref.solve(is * geo.fup)
					for i, g := range ref.goals {
						if !same(res.CycleProbs[i], p[g]) {
							t.Errorf("%s: cycle %d %v, step loop %v", label, i+1, res.CycleProbs[i], p[g])
						}
					}
					if !same(res.DiscardProb, p[ref.discard]) || !same(res.ExpectedAttempts, attempts) {
						t.Errorf("%s: discard/attempts %v/%v, step loop %v/%v", label,
							res.DiscardProb, res.ExpectedAttempts, p[ref.discard], attempts)
					}
				}
			}
		}
	}
}

// TestSolveMatchesStepLoopRandom is the randomized form of the step-loop
// check: 20 000 seeded geometries with Fup 1-20, 1-5 hops in random
// slots, Is 1-8 and the default or a random TTL, each bound to constant,
// slot-varying or failure-window availabilities that include exactly 0
// and 1. Each must solve bit-identically to stepping its chain.
func TestSolveMatchesStepLoopRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	// draw returns an availability of exactly 0 or 1 one time in four.
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return rng.Float64()
	}
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	for i := 0; i < cases; i++ {
		fup := 1 + rng.Intn(20)
		hops := 1 + rng.Intn(min(5, fup))
		slots := rng.Perm(fup)[:hops]
		for h := range slots {
			slots[h]++
		}
		slices.Sort(slots)
		is := 1 + rng.Intn(8)
		ttl := 0
		if rng.Intn(2) == 0 {
			ttl = 1 + rng.Intn(is*fup)
		}
		avails := make([]link.Availability, hops)
		kind := rng.Intn(3)
		for h := range avails {
			switch kind {
			case 0: // constant
				p := draw()
				avails[h] = func(int) float64 { return p }
			case 1: // slot-varying: one draw per slot of the horizon
				ps := make([]float64, is*fup+1)
				for k := range ps {
					ps[k] = draw()
				}
				avails[h] = func(slot int) float64 { return ps[slot] }
			default: // failure window over a constant link
				p, from := draw(), rng.Intn(is*fup+1)
				to := from + rng.Intn(is*fup+1-from)
				avails[h] = func(slot int) float64 {
					if slot > from && slot <= to {
						return 0
					}
					return p
				}
			}
		}
		m, err := Build(Config{Slots: slots, Fup: fup, Is: is, TTL: ttl, Links: avails})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstStepLoop(t, fmt.Sprintf("case %d: slots=%v fup=%d is=%d ttl=%d kind=%d", i, slots, fup, is, ttl, kind), m)
	}
}

// TestSolveAllocationsIndependentOfHorizon pins that a solve allocates a
// fixed number of objects however long the reporting interval: the
// recursion keeps two n-length layers and no per-age or per-state
// buffers.
func TestSolveAllocationsIndependentOfHorizon(t *testing.T) {
	lm, err := link.FromAvailability(0.83, link.DefaultRecoveryProb)
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	for _, is := range []int{4, 64, 1024} {
		m, err := Build(Config{Slots: []int{3, 6, 7}, Fup: 7, Is: is,
			Links: []link.Availability{lm.Steady(), lm.Steady(), lm.Steady()}})
		if err != nil {
			t.Fatal(err)
		}
		allocs[is] = testing.AllocsPerRun(20, func() {
			if _, err := m.Solve(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[64] != allocs[4] || allocs[1024] != allocs[4] {
		t.Errorf("Solve allocates %v objects at Is=4, %v at Is=64 and %v at Is=1024", allocs[4], allocs[64], allocs[1024])
	}
}
