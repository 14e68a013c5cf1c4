package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := new(Solver).Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestMaximizeSimple(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → x=4, y=0, z=12.
	sol := solveOK(t, &Problem{
		Objective: []float64{3, 2},
		Maximize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: LE, RHS: 4},
			{Coeffs: []float64{1, 3}, Rel: LE, RHS: 6},
		},
	})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-12) > 1e-9 {
		t.Fatalf("objective %v, want 12", sol.Objective)
	}
	if math.Abs(sol.X[0]-4) > 1e-9 || math.Abs(sol.X[1]) > 1e-9 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10, x ≤ 8 → x=8, y=2, z=22.
	sol := solveOK(t, &Problem{
		Objective: []float64{2, 3},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: GE, RHS: 10},
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 8},
		},
	})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-22) > 1e-8 {
		t.Fatalf("objective %v, want 22", sol.Objective)
	}
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + 2y = 4, x ≤ 3 → x=3, y=0.5, z=3.5.
	sol := solveOK(t, &Problem{
		Objective: []float64{1, 1},
		Maximize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1, 2}, Rel: EQ, RHS: 4},
			{Coeffs: []float64{1, 0}, Rel: LE, RHS: 3},
		},
	})
	if sol.Status != Optimal || math.Abs(sol.Objective-3.5) > 1e-8 {
		t.Fatalf("got %v obj %v", sol.Status, sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x ≥ 5 and x ≤ 3.
	sol := solveOK(t, &Problem{
		Objective: []float64{1},
		Maximize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{1}, Rel: GE, RHS: 5},
			{Coeffs: []float64{1}, Rel: LE, RHS: 3},
		},
	})
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	sol := solveOK(t, &Problem{
		Objective:   []float64{1, 0},
		Maximize:    true,
		Constraints: []Constraint{{Coeffs: []float64{0, 1}, Rel: LE, RHS: 1}},
	})
	if sol.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// max x s.t. −x ≤ −2 (i.e. x ≥ 2), x ≤ 5 → 5.
	sol := solveOK(t, &Problem{
		Objective: []float64{1},
		Maximize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{-1}, Rel: LE, RHS: -2},
			{Coeffs: []float64{1}, Rel: LE, RHS: 5},
		},
	})
	if sol.Status != Optimal || math.Abs(sol.Objective-5) > 1e-9 {
		t.Fatalf("got %v obj %v", sol.Status, sol.Objective)
	}
}

func TestMinimizationUnboundedBelowIsFineWithNonNegVars(t *testing.T) {
	// min x with no constraints: x ≥ 0 implicit → optimum 0.
	sol := solveOK(t, &Problem{
		Objective:   []float64{1},
		Constraints: nil,
	})
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("got %v obj %v", sol.Status, sol.Objective)
	}
}

func TestDegenerateCycling(t *testing.T) {
	// A classically degenerate LP (Beale's example) that cycles under
	// naive Dantzig without anti-cycling protection.
	sol := solveOK(t, &Problem{
		Objective: []float64{0.75, -150, 0.02, -6},
		Maximize:  true,
		Constraints: []Constraint{
			{Coeffs: []float64{0.25, -60, -0.04, 9}, Rel: LE, RHS: 0},
			{Coeffs: []float64{0.5, -90, -0.02, 3}, Rel: LE, RHS: 0},
			{Coeffs: []float64{0, 0, 1, 0}, Rel: LE, RHS: 1},
		},
	})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-0.05) > 1e-6 {
		t.Fatalf("objective %v, want 0.05", sol.Objective)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := new(Solver).Solve(&Problem{}); err == nil {
		t.Fatal("empty objective accepted")
	}
	if _, err := new(Solver).Solve(&Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1, 2}, Rel: LE, RHS: 1}},
	}); err == nil {
		t.Fatal("mismatched constraint accepted")
	}
	if _, err := new(Solver).Solve(&Problem{
		Objective:   []float64{math.NaN()},
		Constraints: nil,
	}); err == nil {
		t.Fatal("NaN objective accepted")
	}
	if _, err := new(Solver).Solve(&Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{math.Inf(1)}, Rel: LE, RHS: 1}},
	}); err == nil {
		t.Fatal("Inf coefficient accepted")
	}
	if _, err := new(Solver).Solve(&Problem{
		Objective:   []float64{1},
		Constraints: []Constraint{{Coeffs: []float64{1}, Rel: LE, RHS: math.NaN()}},
	}); err == nil {
		t.Fatal("NaN RHS accepted")
	}
}

// TestFeasibilityOfSolutions checks on random LPs that any Optimal
// answer actually satisfies every constraint and that its objective
// is not beaten by random feasible points (weak optimality check).
func TestFeasibilityOfSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		p := &Problem{Objective: make([]float64, n), Maximize: rng.Intn(2) == 0}
		for j := range p.Objective {
			p.Objective[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Rel: LE, RHS: 1 + rng.Float64()*5}
			for j := range c.Coeffs {
				c.Coeffs[j] = rng.Float64() // non-negative → bounded region w/ x ≥ 0? only if objective favours it
			}
			p.Constraints = append(p.Constraints, c)
		}
		sol, err := new(Solver).Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status == Infeasible {
			t.Fatalf("trial %d: LE-with-positive-RHS system cannot be infeasible", trial)
		}
		if sol.Status != Optimal {
			continue // unbounded is legitimate here
		}
		for i, c := range p.Constraints {
			var lhs float64
			for j := range c.Coeffs {
				lhs += c.Coeffs[j] * sol.X[j]
			}
			if lhs > c.RHS+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %v > %v", trial, i, lhs, c.RHS)
			}
		}
		for j, x := range sol.X {
			if x < -1e-9 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, j, x)
			}
		}
		// Random feasible candidates must not beat the optimum.
		for probe := 0; probe < 20; probe++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64()
			}
			feasible := true
			for _, c := range p.Constraints {
				var lhs float64
				for j := range c.Coeffs {
					lhs += c.Coeffs[j] * x[j]
				}
				if lhs > c.RHS {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			var obj float64
			for j := range x {
				obj += p.Objective[j] * x[j]
			}
			if p.Maximize && obj > sol.Objective+1e-6 {
				t.Fatalf("trial %d: random feasible point beats optimum: %v > %v", trial, obj, sol.Objective)
			}
			if !p.Maximize && obj < sol.Objective-1e-6 {
				t.Fatalf("trial %d: random feasible point beats minimum: %v < %v", trial, obj, sol.Objective)
			}
		}
	}
}

// TestLPDualityGap solves a random primal and its explicit dual and
// checks strong duality: max{c·x : Ax ≤ b, x ≥ 0} equals
// min{b·y : Aᵀy ≥ c, y ≥ 0}.
func TestLPDualityGap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = 0.1 + rng.Float64()
			}
			b[i] = 0.5 + rng.Float64()
		}
		for j := range c {
			c[j] = 0.1 + rng.Float64()
		}
		primal := &Problem{Objective: c, Maximize: true}
		for i := 0; i < m; i++ {
			primal.Constraints = append(primal.Constraints, Constraint{Coeffs: A[i], Rel: LE, RHS: b[i]})
		}
		dual := &Problem{Objective: b}
		for j := 0; j < n; j++ {
			col := make([]float64, m)
			for i := 0; i < m; i++ {
				col[i] = A[i][j]
			}
			dual.Constraints = append(dual.Constraints, Constraint{Coeffs: col, Rel: GE, RHS: c[j]})
		}
		ps := solveOK(t, primal)
		dsol := solveOK(t, dual)
		if ps.Status != Optimal || dsol.Status != Optimal {
			t.Fatalf("trial %d: statuses %v / %v", trial, ps.Status, dsol.Status)
		}
		if math.Abs(ps.Objective-dsol.Objective) > 1e-6*(1+math.Abs(ps.Objective)) {
			t.Fatalf("trial %d: duality gap %v vs %v", trial, ps.Objective, dsol.Objective)
		}
	}
}

// TestSolverReuse pins tableau reuse: one Solver solving a seeded
// sequence of problems whose shape changes from solve to solve (m and
// n going up and down, LE/GE/EQ mixes, negative right-hand sides) must
// answer every problem exactly as a fresh Solver does, so a row, basis
// entry, flag or pivot count that init leaves behind from an earlier
// solve fails here. (A kept pivot count shows only after the sequence
// has pivoted past danzigCap, which 2,000 trials do.)
func TestSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var reused Solver
	seen := map[Status]int{}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		m := rng.Intn(8)
		p := &Problem{Objective: make([]float64, n), Maximize: rng.Intn(2) == 0}
		for j := range p.Objective {
			p.Objective[j] = rng.NormFloat64()
		}
		for i := 0; i < m; i++ {
			c := Constraint{Coeffs: make([]float64, n), Rel: Relation(rng.Intn(3)), RHS: 2 * rng.NormFloat64()}
			for j := range c.Coeffs {
				c.Coeffs[j] = rng.NormFloat64()
			}
			p.Constraints = append(p.Constraints, c)
		}
		got, gotErr := reused.Solve(p)
		want, wantErr := new(Solver).Solve(p)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("trial %d: reused error %v, fresh error %v", trial, gotErr, wantErr)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d (m=%d n=%d): reused status %v, fresh %v", trial, m, n, got.Status, want.Status)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || len(got.X) != len(want.X) {
			t.Fatalf("trial %d: reused %v obj %v, fresh %v obj %v", trial, got.X, got.Objective, want.X, want.Objective)
		}
		for j := range got.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
				t.Fatalf("trial %d: reused x %v, fresh x %v", trial, got.X, want.X)
			}
		}
		seen[got.Status]++
	}
	// The sequence must move between every outcome, or a flag such as
	// infeasible would never be seen set before a solve that needs it
	// clear.
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[st] == 0 {
			t.Fatalf("the sequence never solved to %v: %v", st, seen)
		}
	}
}

func TestStatusAndRelationStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Fatal("Status strings wrong")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("Relation strings wrong")
	}
	if Status(9).String() == "" || Relation(9).String() == "" {
		t.Fatal("unknown enum Strings empty")
	}
}
