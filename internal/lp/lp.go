// Package lp implements a dense two-phase primal simplex solver for
// small linear programs, using only the standard library.
//
// It exists for two reasons:
//
//  1. The best-known baseline the paper compares against — Greedy from
//     Nanongkai et al. (VLDB 2010) — computes each candidate's regret
//     contribution by "time-consuming constrained programming", i.e.
//     one LP per candidate per iteration. Reproducing the baseline
//     faithfully requires an LP solver.
//  2. The LPs double as an independent oracle for the geometric
//     quantities: the critical ratio of Lemma 1 equals
//     1 / max{ω·q : ω ≥ 0, ω·p ≤ 1 ∀p∈S}, so every GeoGreedy result
//     can be cross-checked against simplex output in tests.
//
// The solver handles maximization and minimization, ≤ / = / ≥
// constraints and non-negative variables. Problems in this repository
// are tiny (≤ ~12 variables, ≤ ~few hundred constraints), so a dense
// tableau is the right tool. Dantzig's rule is used for speed with a
// switch to Bland's rule after a fixed number of iterations to
// guarantee termination under degeneracy.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/assert"
	"repro/internal/fault"
)

// Relation is the sense of a linear constraint.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // a·x ≤ b
	GE                 // a·x ≥ b
	EQ                 // a·x = b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Constraint is a single linear constraint over the problem's
// variables. Coeffs must have length equal to the number of
// variables in the problem.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

// Problem is a linear program over n non-negative variables.
type Problem struct {
	// Objective holds the objective coefficients c; the solver
	// optimizes c·x.
	Objective []float64
	// Maximize selects the optimization direction.
	Maximize    bool
	Constraints []Constraint
}

// Status is the outcome of solving a Problem.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	// X is the optimal assignment of the original variables
	// (nil unless Status == Optimal).
	X []float64
	// Objective is the optimal objective value in the problem's own
	// direction (nil semantics: undefined unless Optimal).
	Objective float64
}

// Errors returned by Solver.Solve for malformed input or solver failure.
var (
	ErrBadProblem    = errors.New("lp: malformed problem")
	ErrIterationCap  = errors.New("lp: iteration limit exceeded")
	errNeedsPivoting = errors.New("lp: internal pivoting error")
)

const (
	pivotEps   = 1e-9
	feasEps    = 1e-7
	danzigCap  = 2000  // iterations before switching to Bland's rule
	maxPivots  = 50000 // hard cap; Bland guarantees finite termination well below this
	minPivotAb = 1e-11 // smallest acceptable pivot magnitude
	ctxBatch   = 64    // pivots between cancellation checks in SolveCtx
)

// Solver solves linear programs with the two-phase primal simplex
// method. It keeps one tableau across its solves, so a caller that
// solves many problems of similar shape — the Greedy baseline solves
// one LP per candidate per iteration — reuses the tableau's rows
// instead of allocating them per solve. The zero value is ready to
// use. A Solver is not safe for concurrent use: each goroutine that
// solves needs its own.
type Solver struct {
	t tableau
}

// Solve optimizes the problem. All variables are implicitly
// constrained to x ≥ 0.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	return s.SolveCtx(context.Background(), p)
}

// SolveCtx is Solve with cooperative cancellation: the pivot loop
// checks the context every ctxBatch pivots, so a canceled or expired
// context stops even a degenerate, slowly-converging tableau within
// one pivot batch. The returned error wraps ctx.Err().
func (s *Solver) SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	n := len(p.Objective)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty objective", ErrBadProblem)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return nil, fmt.Errorf("%w: constraint %d has %d coefficients, want %d",
				ErrBadProblem, i, len(c.Coeffs), n)
		}
		for _, v := range c.Coeffs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: constraint %d has non-finite coefficient", ErrBadProblem, i)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return nil, fmt.Errorf("%w: constraint %d has non-finite RHS", ErrBadProblem, i)
		}
	}
	for _, v := range p.Objective {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite objective coefficient", ErrBadProblem)
		}
	}

	t := &s.t
	t.init(p)
	if t.numArtificial > 0 {
		if err := t.phase1(ctx); err != nil {
			return nil, err
		}
		if t.infeasible {
			return &Solution{Status: Infeasible}, nil
		}
		if assert.Enabled {
			assert.Feasible("lp phase-1 basis", t.basicValues(), feasEps)
		}
	}
	status, err := t.phase2(ctx, p)
	if err != nil {
		return nil, err
	}
	if status != Optimal {
		return &Solution{Status: status}, nil
	}
	if assert.Enabled {
		assert.Feasible("lp phase-2 basis", t.basicValues(), feasEps)
	}
	x := t.extract()
	obj := dot(p.Objective, x)
	return &Solution{Status: Optimal, X: x, Objective: obj}, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// tableau is the dense simplex tableau. Rows 0..m−1 hold the
// constraints [A | b]; row m is the objective row in the "row starts
// as −c, basic columns eliminated" convention, so cell (m, width)
// holds the current objective value and an entering column is any j
// with row[m][j] < −eps.
type tableau struct {
	m, nOrig      int
	width         int // total variables (orig + slack/surplus + artificial)
	rows          [][]float64
	basis         []int
	artStart      int // first artificial column index
	numArtificial int
	objScratch    []float64 // phase objective row, reused across solves
	pivots        int
	infeasible    bool
}

// normalizedRel is the constraint sense after the RHS ≥ 0
// normalization: flipping a negative-RHS row swaps LE and GE.
func normalizedRel(c Constraint) Relation {
	rel := c.Rel
	if c.RHS < 0 {
		switch rel {
		case LE:
			rel = GE
		case GE:
			rel = LE
		}
	}
	return rel
}

// init loads the problem into the (possibly reused) tableau. Row
// normalization (RHS ≥ 0) is folded into the row writes directly, so
// no intermediate per-constraint copies are made.
func (t *tableau) init(p *Problem) {
	m := len(p.Constraints)
	n := len(p.Objective)

	// Count extra columns: one slack/surplus per inequality, one
	// artificial per row whose normalized sense is GE or EQ.
	numSlack, numArt := 0, 0
	for _, c := range p.Constraints {
		if c.Rel != EQ {
			numSlack++
		}
		if normalizedRel(c) != LE {
			numArt++
		}
	}
	artStart := n + numSlack
	width := artStart + numArt

	t.m, t.nOrig, t.width = m, n, width
	t.artStart, t.numArtificial = artStart, numArt
	t.pivots = 0
	t.infeasible = false
	t.rows = growRows(t.rows, m+1, width+1)
	t.basis = growInts(t.basis, m)

	slackCol, artCol := n, artStart
	for i, c := range p.Constraints {
		row := t.rows[i]
		rhs := c.RHS
		if rhs < 0 {
			rhs = -rhs
			for j, v := range c.Coeffs {
				row[j] = -v
			}
		} else {
			copy(row, c.Coeffs)
		}
		row[width] = rhs
		switch normalizedRel(c) {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1 // surplus
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}
	// The objective row t.rows[m] is zeroed by growRows; phase1/phase2
	// overwrite it via setObjectiveRow.
}

// growRows resizes rows to nRows rows of rowLen zeroed entries,
// reusing prior backing arrays where capacity allows.
func growRows(rows [][]float64, nRows, rowLen int) [][]float64 {
	if cap(rows) < nRows {
		grown := make([][]float64, nRows)
		copy(grown, rows)
		rows = grown
	}
	rows = rows[:nRows]
	for i := range rows {
		if cap(rows[i]) < rowLen {
			rows[i] = make([]float64, rowLen)
			continue
		}
		rows[i] = rows[i][:rowLen]
		clear(rows[i])
	}
	return rows
}

// growInts resizes s to n entries, reusing capacity (values are fully
// overwritten by init, so no zeroing is needed).
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// setObjectiveRow loads row m with −c for the given full-width
// objective and eliminates the basic columns.
func (t *tableau) setObjectiveRow(c []float64) {
	obj := t.rows[t.m]
	for j := range obj {
		obj[j] = 0
	}
	for j, v := range c {
		obj[j] = -v
	}
	for i, b := range t.basis {
		addScaled(obj, t.rows[i], -obj[b])
	}
}

// phaseObjective returns the reusable width-sized zeroed scratch the
// phases load their objective coefficients into.
func (t *tableau) phaseObjective() []float64 {
	if cap(t.objScratch) < t.width {
		t.objScratch = make([]float64, t.width)
		return t.objScratch
	}
	t.objScratch = t.objScratch[:t.width]
	clear(t.objScratch)
	return t.objScratch
}

// addScaled does dst += f·src.
func addScaled(dst, src []float64, f float64) {
	// Most factors in a sparse pivot are exactly 0 and adding 0·src is
	// a bitwise no-op, so the exact-zero fast path is sound.
	//kregret:allow floatcmp: exact-zero fast path is a no-op
	if f == 0 {
		return
	}
	for j := range dst {
		dst[j] += f * src[j]
	}
}

// phase1 maximizes −Σ artificials; infeasible when the optimum is
// below −feasEps.
func (t *tableau) phase1(ctx context.Context) error {
	c := t.phaseObjective()
	for j := t.artStart; j < t.width; j++ {
		c[j] = -1
	}
	t.setObjectiveRow(c)
	status, err := t.iterate(ctx, func(int) bool { return true })
	if err != nil {
		return err
	}
	if status == Unbounded {
		// Phase-1 objective is bounded above by 0; reaching here
		// indicates a numerical failure.
		return errNeedsPivoting
	}
	if t.rows[t.m][t.width] < -feasEps {
		t.infeasible = true
		return nil
	}
	// Drive artificial variables out of the basis where possible.
	for i, b := range t.basis {
		if b < t.artStart {
			continue
		}
		row := t.rows[i]
		pivotCol := -1
		for j := 0; j < t.artStart; j++ {
			if math.Abs(row[j]) > pivotEps {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
		}
		// If no pivot column exists the row is redundant; the
		// artificial stays basic at value ~0 and is harmless as long
		// as artificial columns are barred from entering in phase 2.
	}
	return nil
}

// phase2 optimizes p's objective, excluding artificial columns.
func (t *tableau) phase2(ctx context.Context, p *Problem) (Status, error) {
	c := t.phaseObjective()
	for j, v := range p.Objective {
		if p.Maximize {
			c[j] = v
		} else {
			c[j] = -v
		}
	}
	t.setObjectiveRow(c)
	return t.iterate(ctx, func(j int) bool { return j < t.artStart })
}

// iterate runs simplex pivots until optimality, unboundedness, the
// iteration cap or cancellation. allowed filters which columns may
// enter the basis.
func (t *tableau) iterate(ctx context.Context, allowed func(int) bool) (Status, error) {
	if fault.Enabled && fault.Active(fault.SiteLPIterationCap) {
		return Optimal, fmt.Errorf("%w (injected after %d pivots)", ErrIterationCap, t.pivots)
	}
	obj := t.rows[t.m]
	for {
		if t.pivots > maxPivots {
			return Optimal, ErrIterationCap
		}
		if t.pivots%ctxBatch == 0 {
			if fault.Enabled {
				fault.Sleep(fault.SiteLPSlowPivot)
			}
			if err := ctx.Err(); err != nil {
				return Optimal, fmt.Errorf("lp: solve canceled: %w", err)
			}
		}
		bland := t.pivots > danzigCap
		// Entering column.
		enter := -1
		best := -pivotEps
		for j := 0; j < t.width; j++ {
			if !allowed(j) {
				continue
			}
			if obj[j] < best {
				enter = j
				if bland {
					break // Bland: first eligible index
				}
				best = obj[j]
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test for the leaving row.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.rows[i][enter]
			if a <= pivotEps {
				continue
			}
			ratio := t.rows[i][t.width] / a
			if ratio < bestRatio-pivotEps {
				leave, bestRatio = i, ratio
			} else if ratio < bestRatio+pivotEps && leave >= 0 && t.basis[i] < t.basis[leave] {
				// Bland-style tie-break on the leaving variable index
				// prevents cycling under degeneracy.
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	t.pivots++
	row := t.rows[leave]
	p := row[enter]
	if math.Abs(p) < minPivotAb {
		// Degenerate pivot on a near-zero element: skip scaling to
		// avoid blowing up the tableau; the caller's tolerance
		// handling treats this row as unchanged.
		return
	}
	inv := 1 / p
	for j := range row {
		row[j] *= inv
	}
	row[enter] = 1 // exact
	for i := range t.rows {
		if i == leave {
			continue
		}
		addScaled(t.rows[i], row, -t.rows[i][enter])
		t.rows[i][enter] = 0 // exact
	}
	t.basis[leave] = enter
}

// basicValues returns the current values of the basic variables (the
// RHS column). Simplex pivoting must keep them all non-negative; the
// kregretdebug feasibility assertion checks exactly that.
func (t *tableau) basicValues() []float64 {
	vals := make([]float64, t.m)
	for i := range vals {
		vals[i] = t.rows[i][t.width]
	}
	return vals
}

// extract reads the original variables from the final tableau.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.nOrig)
	for i, b := range t.basis {
		if b < t.nOrig {
			x[b] = t.rows[i][t.width]
			if x[b] < 0 && x[b] > -feasEps {
				x[b] = 0
			}
		}
	}
	return x
}
