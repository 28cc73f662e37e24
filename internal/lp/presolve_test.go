package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomModel generates a well-scaled random LP exercising every
// standardization branch and presolve reduction trigger: fixed variables,
// free variables, singleton and empty rows, wide redundant rows, dominated
// columns, and a mix of senses and orientations.
func randomModel(r *rand.Rand) *Model {
	m := NewModel()
	m.SetMaximize(r.Intn(2) == 0)
	nv := 4 + r.Intn(12)
	nr := 3 + r.Intn(12)
	vars := make([]Var, nv)
	for j := 0; j < nv; j++ {
		lo, up := 0.0, 2.0+4*r.Float64()
		switch r.Intn(10) {
		case 0: // fixed
			lo = 1 + r.Float64()
			up = lo
		case 1: // shifted lower bound
			lo = -2 + r.Float64()
		case 2: // upper bound only
			lo = math.Inf(-1)
			up = 3 * r.Float64()
		case 3: // free
			lo = math.Inf(-1)
			up = math.Inf(1)
		case 4: // unbounded above
			up = math.Inf(1)
		}
		obj := -2 + 4*r.Float64()
		if r.Intn(6) == 0 {
			obj = 0
		}
		vars[j] = m.AddVar(lo, up, obj, fmt.Sprintf("x%d", j))
	}
	for i := 0; i < nr; i++ {
		sense := Sense(r.Intn(3))
		width := 1 + r.Intn(4)
		terms := make([]Term, 0, width)
		used := map[int]bool{}
		for len(terms) < width {
			j := r.Intn(nv)
			if used[j] {
				continue
			}
			used[j] = true
			c := -2 + 4*r.Float64()
			if math.Abs(c) < 0.05 {
				c = 0.5
			}
			terms = append(terms, Term{vars[j], c})
		}
		rhs := -3 + 10*r.Float64()
		if sense == GE {
			rhs = -6 + 8*r.Float64()
		}
		if r.Intn(12) == 0 {
			rhs = 50 + 10*r.Float64() // likely redundant vs bounds
		}
		m.AddConstraint(sense, rhs, terms...)
	}
	return m
}

// checkOptimalityCertificate verifies that (X, Dual, ReducedCost) form a
// KKT certificate for the model: primal feasibility, dual feasibility
// (sign conditions per sense and per variable position), reduced costs
// consistent with the duals, and complementary slackness. Together with
// objective agreement against a trusted solve this proves the solution
// optimal — without demanding the exact same vertex, which degenerate
// optima do not guarantee.
func checkOptimalityCertificate(t *testing.T, m *Model, sol *Solution, tag string) {
	t.Helper()
	const tol = 1e-6
	if r := m.residual(sol.X); r > tol {
		t.Errorf("%s: primal residual %g", tag, r)
	}
	// Dual signs per sense: max wants LE >= 0, GE <= 0; min is mirrored.
	for i := range m.rows {
		y := sol.Dual[i]
		bad := false
		switch m.senses[i] {
		case LE:
			bad = (m.maximize && y < -tol) || (!m.maximize && y > tol)
		case GE:
			bad = (m.maximize && y > tol) || (!m.maximize && y < -tol)
		}
		if bad {
			t.Errorf("%s: row %d (%v) dual %g has infeasible sign", tag, i, m.senses[i], y)
		}
		// Complementary slackness: a priced row must be active.
		if math.Abs(y) > tol {
			act := 0.0
			scale := 1.0
			for _, tm := range m.rows[i] {
				v := tm.Coef * sol.X[tm.Var]
				act += v
				if a := math.Abs(v); a > scale {
					scale = a
				}
			}
			if math.Abs(act-m.rhs[i])/scale > 1e-5 {
				t.Errorf("%s: row %d dual %g but slack %g", tag, i, y, act-m.rhs[i])
			}
		}
	}
	for j := range m.obj {
		// Reduced cost must equal c_j - y·A_j.
		d := m.obj[j]
		for i, row := range m.rows {
			for _, tm := range row {
				if int(tm.Var) == j {
					d -= sol.Dual[i] * tm.Coef
				}
			}
		}
		if math.Abs(d-sol.ReducedCost[j]) > 1e-5*(1+math.Abs(d)) {
			t.Errorf("%s: var %d reduced cost %g, want %g", tag, j, sol.ReducedCost[j], d)
		}
		x := sol.X[j]
		lo, up := m.lo[j], m.up[j]
		if up-lo < tol {
			continue // fixed variables carry any reduced cost
		}
		atLo := !math.IsInf(lo, -1) && x <= lo+tol*(1+math.Abs(lo))
		atUp := !math.IsInf(up, 1) && x >= up-tol*(1+math.Abs(up))
		dd := d
		if !m.maximize {
			dd = -dd // flip into "max" orientation: at lo => dd<=0, at up => dd>=0
		}
		switch {
		case atLo && !atUp:
			if dd > 1e-5 {
				t.Errorf("%s: var %d at lower bound with improving reduced cost %g", tag, j, d)
			}
		case atUp && !atLo:
			if dd < -1e-5 {
				t.Errorf("%s: var %d at upper bound with improving reduced cost %g", tag, j, d)
			}
		case !atLo && !atUp:
			if math.Abs(dd) > 1e-5 {
				t.Errorf("%s: interior var %d has nonzero reduced cost %g", tag, j, d)
			}
		}
	}
}

// TestPresolveDifferentialRandom compares presolve-on against presolve-off
// across a sweep of random models: statuses must agree, optimal objectives
// must match, and the presolved path's full-model solution must be a valid
// optimality certificate.
func TestPresolveDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r)
		plain, err := m.Solve(Options{})
		if err != nil {
			t.Fatalf("seed %d: plain solve: %v", seed, err)
		}
		pre, err := m.Solve(Options{Presolve: true})
		if err != nil {
			t.Fatalf("seed %d: presolved solve: %v", seed, err)
		}
		if plain.Status != pre.Status {
			t.Errorf("seed %d: status plain=%v presolve=%v", seed, plain.Status, pre.Status)
			continue
		}
		if plain.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(plain.Objective)
		if math.Abs(plain.Objective-pre.Objective)/scale > 1e-6 {
			t.Errorf("seed %d: objective plain=%g presolve=%g", seed, plain.Objective, pre.Objective)
		}
		checkOptimalityCertificate(t, m, pre, fmt.Sprintf("seed %d", seed))
	}
}

// TestPresolveMutateAndResolve drives the retained-model path: data edits
// (SetRHS, SetBounds, SetObj) followed by warm re-solves, with presolve on
// and off, checking agreement after every mutation.
func TestPresolveMutateAndResolve(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r)
		var warmPre, warmPlain *Basis
		for step := 0; step < 4; step++ {
			if step > 0 {
				// Perturb data only: rhs nudges, a bound tweak, an
				// objective tweak — the shapes Rebind produces.
				for i := 0; i < m.NumRows(); i++ {
					if r.Intn(3) == 0 {
						m.SetRHS(Row(i), m.rhs[i]+(-0.5+r.Float64()))
					}
				}
				j := r.Intn(m.NumVars())
				lo, up := m.Bounds(Var(j))
				if !math.IsInf(up, 1) {
					m.SetBounds(Var(j), lo, up+r.Float64())
				}
				m.SetObj(Var(r.Intn(m.NumVars())), -2+4*r.Float64())
			}
			plain, err := m.Solve(Options{WarmBasis: warmPlain})
			if err != nil {
				t.Fatalf("seed %d step %d: plain: %v", seed, step, err)
			}
			pre, err := m.Solve(Options{Presolve: true, WarmBasis: warmPre})
			if err != nil {
				t.Fatalf("seed %d step %d: presolved: %v", seed, step, err)
			}
			if plain.Status != pre.Status {
				t.Fatalf("seed %d step %d: status plain=%v presolve=%v", seed, step, plain.Status, pre.Status)
			}
			warmPlain, warmPre = plain.Basis(), pre.Basis()
			if plain.Status != Optimal {
				continue
			}
			scale := 1 + math.Abs(plain.Objective)
			if math.Abs(plain.Objective-pre.Objective)/scale > 1e-6 {
				t.Errorf("seed %d step %d: objective plain=%g presolve=%g", seed, step, plain.Objective, pre.Objective)
			}
			checkOptimalityCertificate(t, m, pre, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestPresolveReductions pins down individual reductions on hand-built
// models where the expected reduced shape and recovered duals are known.
func TestPresolveReductions(t *testing.T) {
	t.Run("singleton-row-becomes-binding-bound", func(t *testing.T) {
		// max x+y s.t. x <= 3 (singleton), x+y <= 10, y <= 4 (bound).
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, Inf, 1, "x")
		y := m.AddVar(0, 4, 1, "y")
		rx := m.AddConstraint(LE, 3, Term{x, 1})
		rsum := m.AddConstraint(LE, 10, Term{x, 1}, Term{y, 1})
		sol, err := m.Solve(Options{Presolve: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if math.Abs(sol.Objective-7) > 1e-9 {
			t.Fatalf("objective %g, want 7", sol.Objective)
		}
		// The singleton row is the binding constraint on x: its dual must
		// carry x's unit value; the wide row is slack (3+4 < 10), dual 0.
		if math.Abs(sol.Dual[rx]-1) > 1e-9 {
			t.Errorf("singleton row dual %g, want 1", sol.Dual[rx])
		}
		if math.Abs(sol.Dual[rsum]) > 1e-9 {
			t.Errorf("slack row dual %g, want 0", sol.Dual[rsum])
		}
	})

	t.Run("redundant-row-dropped-with-zero-dual", func(t *testing.T) {
		// Row activity can never reach the rhs: dual must be exactly 0.
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, 2, 1, "x")
		y := m.AddVar(0, 2, 1, "y")
		red := m.AddConstraint(LE, 100, Term{x, 1}, Term{y, 1})
		sol, err := m.Solve(Options{Presolve: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if sol.Dual[red] != 0 {
			t.Errorf("redundant row dual %g, want exactly 0", sol.Dual[red])
		}
		if math.Abs(sol.Objective-4) > 1e-9 {
			t.Errorf("objective %g, want 4", sol.Objective)
		}
	})

	t.Run("fixed-variable-substituted", func(t *testing.T) {
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(2, 2, 5, "x") // fixed at 2
		y := m.AddVar(0, Inf, 1, "y")
		r := m.AddConstraint(LE, 7, Term{x, 1}, Term{y, 1})
		sol, err := m.Solve(Options{Presolve: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if sol.X[x] != 2 || math.Abs(sol.X[y]-5) > 1e-9 {
			t.Errorf("X = (%g, %g), want (2, 5)", sol.X[x], sol.X[y])
		}
		if math.Abs(sol.Dual[r]-1) > 1e-9 {
			t.Errorf("row dual %g, want 1", sol.Dual[r])
		}
		if math.Abs(sol.Objective-15) > 1e-9 {
			t.Errorf("objective %g, want 15", sol.Objective)
		}
	})

	t.Run("equality-singleton-fixes-and-recovers-dual", func(t *testing.T) {
		// 2x = 6 fixes x=3; the row's dual must absorb x's whole value
		// since x is interior to [0, 10].
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, 10, 4, "x")
		y := m.AddVar(0, 5, 1, "y")
		req := m.AddConstraint(EQ, 6, Term{x, 2})
		m.AddConstraint(LE, 100, Term{x, 1}, Term{y, 1})
		sol, err := m.Solve(Options{Presolve: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if math.Abs(sol.X[x]-3) > 1e-9 {
			t.Errorf("x = %g, want 3", sol.X[x])
		}
		// d_x must be 0 after recovery: 4 - 2*y_eq = 0 => y_eq = 2.
		if math.Abs(sol.Dual[req]-2) > 1e-9 {
			t.Errorf("equality singleton dual %g, want 2", sol.Dual[req])
		}
		if math.Abs(sol.ReducedCost[x]) > 1e-9 {
			t.Errorf("fixed-interior var reduced cost %g, want 0", sol.ReducedCost[x])
		}
	})

	t.Run("infeasible-detected-in-presolve", func(t *testing.T) {
		m := NewModel()
		x := m.AddVar(0, 1, 1, "x")
		m.AddConstraint(GE, 5, Term{x, 1}) // x >= 5 vs up = 1
		sol, err := m.Solve(Options{Presolve: true})
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		if sol.Status != Infeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}
	})

	t.Run("everything-reduces-away", func(t *testing.T) {
		// All variables fixed or dominated, all rows dropped: the reduced
		// model is empty and postsolve alone produces the answer.
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(1, 1, 3, "x")
		y := m.AddVar(0, 2, 1, "y") // dominated upward: no rows resist
		sol, err := m.Solve(Options{Presolve: true})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if sol.X[x] != 1 || sol.X[y] != 2 {
			t.Errorf("X = (%g, %g), want (1, 2)", sol.X[x], sol.X[y])
		}
		if math.Abs(sol.Objective-5) > 1e-9 {
			t.Errorf("objective %g, want 5", sol.Objective)
		}
	})
}

// TestSetBoundsPatchedStandardization checks that data edits reuse the
// cached standardized form (same pivots as a fresh model) and that branch
// changes fall back to a full rebuild instead of corrupting state.
func TestSetBoundsPatchedStandardization(t *testing.T) {
	build := func() *Model {
		m := NewModel()
		m.SetMaximize(true)
		x := m.AddVar(0, 4, 3, "x")
		y := m.AddVar(-1, 5, 2, "y")
		m.AddConstraint(LE, 6, Term{x, 1}, Term{y, 1})
		m.AddConstraint(GE, 1, Term{x, 1})
		return m
	}
	m := build()
	if _, err := m.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
	// Data edits: re-solve through the cache must match a fresh model.
	m.SetBounds(0, 0, 2.5)
	m.SetRHS(0, 5)
	m.SetObj(1, 4)
	got, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := build()
	fresh.SetBounds(0, 0, 2.5)
	fresh.SetRHS(0, 5)
	fresh.SetObj(1, 4)
	want, err := fresh.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Objective != want.Objective || got.Iterations != want.Iterations {
		t.Errorf("cached standardization diverged: got obj=%g iters=%d, want obj=%g iters=%d",
			got.Objective, got.Iterations, want.Objective, want.Iterations)
	}
	for j := range got.X {
		if got.X[j] != want.X[j] {
			t.Errorf("X[%d]: cached %g, fresh %g", j, got.X[j], want.X[j])
		}
	}

	// Branch change: y's lower bound goes to -Inf (finite-lo branch to
	// upper-only branch) — must trigger a rebuild and still solve right.
	m.SetBounds(1, math.Inf(-1), 5)
	got2, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh2 := build()
	fresh2.SetBounds(0, 0, 2.5)
	fresh2.SetRHS(0, 5)
	fresh2.SetObj(1, 4)
	fresh2.SetBounds(1, math.Inf(-1), 5)
	want2, err := fresh2.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got2.Objective-want2.Objective) > 1e-9 {
		t.Errorf("post-rebuild objective %g, want %g", got2.Objective, want2.Objective)
	}

	// A structural edit after caching must also rebuild cleanly.
	v := m.AddVar(0, 1, 10, "z")
	m.AddConstraint(LE, 1, Term{v, 1})
	if _, err := m.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
}

// stableReductionModel is a small LP whose presolve keeps rows A and B,
// drops the redundant row C (x4 + x5 can reach at most 4 < 10), and
// removes x5 once C is gone.
func stableReductionModel() (*Model, []Var) {
	m := NewModel()
	m.SetMaximize(true)
	obj := []float64{3, 2, 4, 1, 2, 1}
	x := make([]Var, len(obj))
	for j, c := range obj {
		x[j] = m.AddVar(0, 2, c, fmt.Sprintf("x%d", j))
	}
	m.AddConstraint(LE, 3, Term{x[0], 1}, Term{x[1], 1}, Term{x[2], 1})   // A
	m.AddConstraint(LE, 3, Term{x[2], 1}, Term{x[3], 1}, Term{x[4], 1})   // B
	m.AddConstraint(LE, 10, Term{x[4], 1}, Term{x[5], 1})                 // C
	m.AddConstraint(GE, 1, Term{x[1], 1}, Term{x[3], 1}, Term{x[0], 0.5}) // D
	return m, x
}

// TestPresolveStableReduction pins the stable-reduction rule. A tightening
// edit — the Rebind shape, an upper bound set to 0 — keeps the cached
// reduction: the reduced model is patched in place (same model, same
// standardized signature), the newly fixed variable stays in it as a [0,0]
// column, and the previous basis warm-starts the re-solve. A loosening
// edit that breaks a cached redundant-row drop must fall back to a fresh
// reduction. Both answers must match a fresh model solved cold.
func TestPresolveStableReduction(t *testing.T) {
	m, x := stableReductionModel()
	var stats SolveStats
	first, err := m.Solve(Options{Presolve: true, Stats: &stats})
	if err != nil || first.Status != Optimal {
		t.Fatalf("first solve: %v %v", err, first.Status)
	}
	red := m.pre.red
	if red.NumRows() != 3 || m.pre.rowMap[2] != -1 {
		t.Fatalf("reduced model has %d rows (row C -> %d); want 3 with C dropped", red.NumRows(), m.pre.rowMap[2])
	}
	sig := red.std.signature()
	nv := red.NumVars()

	fresh := func(edit func(*Model, []Var)) *Solution {
		t.Helper()
		f, fx := stableReductionModel()
		edit(f, fx)
		sol, err := f.Solve(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("fresh solve: %v %v", err, sol.Status)
		}
		return sol
	}

	tighten := func(m *Model, x []Var) { m.SetBounds(x[1], 0, 0) }
	tighten(m, x)
	got, err := m.Solve(Options{Presolve: true, Stats: &stats, WarmBasis: first.Basis()})
	if err != nil || got.Status != Optimal {
		t.Fatalf("tightened solve: %v %v", err, got.Status)
	}
	if m.pre.red != red || red.NumVars() != nv || red.std.signature() != sig {
		t.Errorf("tightening rebuilt the reduced model or changed its signature")
	}
	if m.pre.removed[x[1]] {
		t.Errorf("the newly fixed x1 left the reduced model; it should stay as a [0,0] column")
	}
	if stats.WarmStarts != 1 {
		t.Errorf("WarmStarts = %d after the tightened re-solve, want 1", stats.WarmStarts)
	}
	if want := fresh(tighten); math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Errorf("tightened objective %v, fresh cold %v", got.Objective, want.Objective)
	}
	checkOptimalityCertificate(t, m, got, "tightened")

	loosen := func(m *Model, x []Var) { m.SetBounds(x[4], 0, 20) } // C can bind now
	loosen(m, x)
	got, err = m.Solve(Options{Presolve: true, Stats: &stats, WarmBasis: got.Basis()})
	if err != nil || got.Status != Optimal {
		t.Fatalf("loosened solve: %v %v", err, got.Status)
	}
	if m.pre.red == red {
		t.Errorf("loosening kept the stale reduced model")
	}
	if m.pre.rowMap[2] < 0 {
		t.Errorf("row C is still dropped after x4's bound grew past its rhs")
	}
	if want := fresh(func(m *Model, x []Var) { tighten(m, x); loosen(m, x) }); math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Errorf("loosened objective %v, fresh cold %v", got.Objective, want.Objective)
	}
	checkOptimalityCertificate(t, m, got, "loosened")
}

// TestPresolvePinningChainRandom drives the stable-reduction path on random
// models: each step pins a few variables to a finite bound (the Rebind
// shape) and nudges some right-hand sides, then re-solves presolved and
// warm. Every answer must agree with the unreduced solve and pass the
// optimality certificate, whether the cached reduction held or not.
func TestPresolvePinningChainRandom(t *testing.T) {
	keptPinned := 0 // pinned variables left in a patched reduced model
	for seed := int64(200); seed < 240; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r)
		var warm *Basis
		for step := 0; step < 5; step++ {
			if step > 0 {
				for k := 0; k < 2; k++ {
					j := Var(r.Intn(m.NumVars()))
					lo, up := m.Bounds(j)
					switch {
					case !math.IsInf(lo, -1):
						m.SetBounds(j, lo, lo)
					case !math.IsInf(up, 1):
						m.SetBounds(j, up, up)
					}
				}
				if i := r.Intn(m.NumRows()); r.Intn(2) == 0 {
					m.SetRHS(Row(i), m.rhs[i]-0.3*r.Float64())
				}
			}
			plain, err := m.Solve(Options{})
			if err != nil {
				t.Fatalf("seed %d step %d: plain: %v", seed, step, err)
			}
			pre, err := m.Solve(Options{Presolve: true, WarmBasis: warm})
			if err != nil {
				t.Fatalf("seed %d step %d: presolved: %v", seed, step, err)
			}
			if plain.Status != pre.Status {
				t.Fatalf("seed %d step %d: status plain=%v presolve=%v", seed, step, plain.Status, pre.Status)
			}
			warm = pre.Basis()
			if m.pre.status == Optimal {
				for j := range m.obj {
					if m.lo[j] == m.up[j] && !m.pre.removed[j] {
						keptPinned++
					}
				}
			}
			if plain.Status != Optimal {
				continue
			}
			if d := math.Abs(plain.Objective-pre.Objective) / (1 + math.Abs(plain.Objective)); d > 1e-6 {
				t.Errorf("seed %d step %d: objective plain=%g presolve=%g", seed, step, plain.Objective, pre.Objective)
			}
			checkOptimalityCertificate(t, m, pre, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
	if keptPinned == 0 {
		t.Fatal("no pinned variable ever stayed in a patched reduced model; the sweep misses the path it targets")
	}
	t.Logf("%d pinned variables kept as fixed columns", keptPinned)
}
