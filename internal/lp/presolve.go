package lp

// Presolve: the model-reduction pass behind Options.Presolve.
//
// The SAM LP at paper scale is dominated by rows that cannot bind — most
// (edge, timestep) capacity rows bound flow variables whose own upper
// bounds already cap the row's activity below capacity — and by rows that
// are really just variable bounds in disguise (single-route rate caps,
// single-variable demand caps). Presolve removes both classes before the
// simplex sees the model, and postsolve reconstructs the full primal,
// dual, and reduced-cost vectors so the Price Computer's duals survive the
// reduction: a row proven redundant against the variable bounds always
// admits zero as an optimal dual, and a singleton row that became the
// binding bound of its variable takes that variable's reduced cost back as
// its dual.
//
// The reduction recipe is retained on the Model. After a data-only edit
// (rhs, bounds, objective) the passes first try to reproduce the cached
// reduction — the same rows dropped, the same variables removed — and,
// when it still holds, the cached reduced model is patched in place
// instead of rebuilt, which keeps its own standardized form and warm-basis
// signature stable across re-solves (see runPresolve).

import "math"

// dropKind records how a row left the model during presolve, which
// determines how its dual is recovered during postsolve.
type dropKind int8

const (
	dropKeep         dropKind = iota // row survives into the reduced model
	dropEmptyRow                     // no live variables; dual 0
	dropRedundantRow                 // implied by variable bounds; dual 0
	dropSingletonBnd                 // inequality singleton folded into a bound
	dropSingletonFix                 // equality singleton fixed its variable
	dropSlackCol                     // zero-cost singleton column absorbs the row; dual 0
)

// rowDrop is the per-row recipe entry.
type rowDrop struct {
	kind   dropKind
	v      int     // variable involved (singleton and slack kinds)
	coef   float64 // its coefficient in the row
	bound  float64 // implied bound (dropSingletonBnd)
	atUp   bool    // the implied bound is an upper bound
	strict bool    // the implied bound strictly tightened the working bound
}

// presolveState holds the reduction recipe, the reduced model, and the
// reusable scratch. It is cached on the Model and refreshed every
// presolved solve; the reduced model is only rebuilt when a cached
// reduction no longer holds for the model's data.
type presolveState struct {
	status Status // Optimal = proceed to the simplex; Infeasible = decided here
	red    *Model

	// Per original variable.
	removed []bool
	fixVal  []float64 // value of removed variables (NaN for slack columns)
	colMap  []int     // original var -> reduced var, -1 when removed
	lo, up  []float64 // working (tightened) bounds

	// Per original row.
	drops  []rowDrop
	rowMap []int // original row -> reduced row, -1 when dropped
	effRhs []float64

	// removeOrder lists removed variables in removal order; postsolve
	// walks it backwards so each absorption only perturbs duals of rows
	// whose other variables are processed later.
	removeOrder []int

	// Pattern of the cached reduced model, for patch-vs-rebuild.
	prevRemoved []bool
	prevKept    []bool

	// CSR index of rows per variable, for postsolve dual recovery. It
	// depends only on the model's rows, so it is rebuilt only after a
	// structural edit clears varRowsOK (see Model.structureChanged).
	varRowsOK  bool
	varRowPtr  []int32
	varRowIdx  []int32
	varRowCoef []float64

	// Column-pass scratch.
	colCnt  []int32
	colRow  []int32
	colCoef []float64
	colOKDn []bool
	colOKUp []bool
	colEQ   []bool
}

const presolveFeasTol = 1e-7

// resizeInt etc: grow-and-reset helpers that keep capacity across solves.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// runPresolve computes the reduction for the model's current data,
// reusing (and, when the pattern is stable, patching) the cached state.
//
// Once a reduced model exists, the passes first run restricted to its
// reduction: a variable may leave only if the cached reduction removed it,
// a row only if the cached reduction dropped it. When every cached
// reduction still holds, the reduced model is patched in place, so its
// standardization and warm-basis signature survive the edit. Edits that
// only tighten (Rebind pinning past slots to [0,0], say) always take this
// path: a newly fixed column stays in the reduced model as a [0,0] column,
// and a row that could now be dropped stays too. Only when a cached
// reduction no longer holds (or the restricted pass finds the data
// infeasible) does the unrestricted pass run and the reduced model get
// rebuilt. The first presolved solve of a model takes the unrestricted
// pass directly.
func (m *Model) runPresolve() *presolveState {
	ps := m.pre
	if ps == nil {
		ps = &presolveState{}
		m.pre = ps
	}
	cached := ps.red != nil && len(ps.prevRemoved) == m.NumVars() && len(ps.prevKept) == m.NumRows()
	if cached && m.reduce(ps, true) && ps.sameReduction() {
		m.assembleReduced(ps)
		return ps
	}
	if m.reduce(ps, false) {
		m.assembleReduced(ps)
	}
	return ps
}

// sameReduction reports whether the recipe just computed removes exactly
// the variables and drops exactly the rows of the cached reduced model.
func (ps *presolveState) sameReduction() bool {
	if ps.red == nil || len(ps.prevRemoved) != len(ps.removed) || len(ps.prevKept) != len(ps.drops) {
		return false
	}
	for j, r := range ps.removed {
		if ps.prevRemoved[j] != r {
			return false
		}
	}
	for i := range ps.drops {
		if ps.prevKept[i] != (ps.drops[i].kind == dropKeep) {
			return false
		}
	}
	return true
}

// reduce runs the presolve passes to a fixed point and records the recipe
// in ps. With restrict set, only the variables and rows the cached
// reduction removed may leave (see runPresolve). It reports whether the
// model survived presolve; on false, ps.status is Infeasible.
func (m *Model) reduce(ps *presolveState, restrict bool) bool {
	nv, nr := m.NumVars(), m.NumRows()
	ps.status = Optimal
	ps.removed = resizeBools(ps.removed, nv)
	ps.fixVal = resizeFloats(ps.fixVal, nv)
	ps.colMap = resizeInts(ps.colMap, nv)
	ps.lo = resizeFloats(ps.lo, nv)
	ps.up = resizeFloats(ps.up, nv)
	ps.drops = ps.drops[:0]
	if cap(ps.drops) < nr {
		ps.drops = make([]rowDrop, nr)
	} else {
		ps.drops = ps.drops[:nr]
		for i := range ps.drops {
			ps.drops[i] = rowDrop{}
		}
	}
	ps.rowMap = resizeInts(ps.rowMap, nr)
	ps.effRhs = resizeFloats(ps.effRhs, nr)
	ps.removeOrder = ps.removeOrder[:0]
	copy(ps.lo, m.lo)
	copy(ps.up, m.up)
	for j := 0; j < nv; j++ {
		ps.removed[j] = false
	}

	objSign := 1.0
	if m.maximize {
		objSign = -1
	}
	remove := func(j int, val float64) {
		ps.removed[j] = true
		ps.fixVal[j] = val
		ps.removeOrder = append(ps.removeOrder, j)
	}
	canRemove := func(j int) bool { return !restrict || ps.prevRemoved[j] }
	canDrop := func(i int) bool { return !restrict || !ps.prevKept[i] }
	infeasible := func() bool {
		ps.status = Infeasible
		return false
	}

	ps.colCnt = resizeInt32s(ps.colCnt, nv)
	ps.colRow = resizeInt32s(ps.colRow, nv)
	ps.colCoef = resizeFloats(ps.colCoef, nv)
	ps.colOKDn = resizeBools(ps.colOKDn, nv)
	ps.colOKUp = resizeBools(ps.colOKUp, nv)
	ps.colEQ = resizeBools(ps.colEQ, nv)

	maxPasses := nv + nr + 2
	for pass := 0; pass < maxPasses; pass++ {
		changed := false

		// Variables whose working bounds have met: fix and substitute.
		for j := 0; j < nv; j++ {
			if ps.removed[j] {
				continue
			}
			lo, up := ps.lo[j], ps.up[j]
			if lo > up+presolveFeasTol*(1+math.Abs(lo)) {
				return infeasible()
			}
			switch {
			case lo >= up && canRemove(j):
				remove(j, 0.5*(lo+up))
				changed = true
			case lo > up:
				// Crossed within tolerance but kept: pin it where removal
				// would have, so the reduced model never sees lo > up.
				ps.lo[j], ps.up[j] = 0.5*(lo+up), 0.5*(lo+up)
				changed = true
			}
		}

		// Row scan: empty and singleton rows.
		for i := 0; i < nr; i++ {
			if ps.drops[i].kind != dropKeep {
				continue
			}
			eff := m.rhs[i]
			live := 0
			lv, lc := -1, 0.0
			for _, t := range m.rows[i] {
				if ps.removed[int(t.Var)] {
					eff -= t.Coef * ps.fixVal[t.Var]
				} else {
					live++
					lv, lc = int(t.Var), t.Coef
				}
			}
			ps.effRhs[i] = eff
			if live > 1 {
				continue
			}
			tol := presolveFeasTol * (1 + math.Abs(m.rhs[i]))
			if live == 0 {
				viol := 0.0
				switch m.senses[i] {
				case LE:
					viol = -eff
				case GE:
					viol = eff
				case EQ:
					viol = math.Abs(eff)
				}
				if viol > tol {
					return infeasible()
				}
				if canDrop(i) {
					ps.drops[i] = rowDrop{kind: dropEmptyRow}
					changed = true
				}
				continue
			}
			// Singleton row: one live variable.
			switch m.senses[i] {
			case EQ:
				val := eff / lc
				if val < ps.lo[lv]-tol || val > ps.up[lv]+tol {
					return infeasible()
				}
				if !canDrop(i) || !canRemove(lv) {
					continue
				}
				val = math.Max(ps.lo[lv], math.Min(ps.up[lv], val))
				ps.drops[i] = rowDrop{kind: dropSingletonFix, v: lv, coef: lc}
				remove(lv, val)
			default:
				if !canDrop(i) {
					continue
				}
				// a·x ≤ b with a>0 (or ≥ with a<0) implies an upper bound;
				// the mirrored cases imply a lower bound.
				b := eff / lc
				upper := (m.senses[i] == LE) == (lc > 0)
				d := rowDrop{kind: dropSingletonBnd, v: lv, coef: lc, bound: b, atUp: upper}
				if upper {
					if b < ps.up[lv] {
						d.strict = true
						ps.up[lv] = b
					}
				} else if b > ps.lo[lv] {
					d.strict = true
					ps.lo[lv] = b
				}
				// Detect bound crossing immediately: the column pass below
				// must never see lo > up (it would fix the variable at an
				// infeasible value and hide the conflict).
				if ps.lo[lv] > ps.up[lv]+presolveFeasTol*(1+math.Abs(ps.lo[lv])) {
					return infeasible()
				}
				ps.drops[i] = d
			}
			changed = true
		}

		// Redundancy scan: rows implied by the working variable bounds
		// always admit a zero dual, so dropping them is exact.
		for i := 0; i < nr; i++ {
			if ps.drops[i].kind != dropKeep || m.senses[i] == EQ || !canDrop(i) {
				continue
			}
			minAct, maxAct := 0.0, 0.0
			for _, t := range m.rows[i] {
				j := int(t.Var)
				if ps.removed[j] {
					continue
				}
				lo, up := ps.lo[j], ps.up[j]
				if t.Coef > 0 {
					minAct += t.Coef * lo
					maxAct += t.Coef * up
				} else {
					minAct += t.Coef * up
					maxAct += t.Coef * lo
				}
			}
			if (m.senses[i] == LE && maxAct <= ps.effRhs[i]) ||
				(m.senses[i] == GE && minAct >= ps.effRhs[i]) {
				ps.drops[i] = rowDrop{kind: dropRedundantRow}
				changed = true
			}
		}

		// Column scan: empty, slack-singleton, and dominated columns.
		for j := 0; j < nv; j++ {
			ps.colCnt[j] = 0
			ps.colOKDn[j] = true
			ps.colOKUp[j] = true
			ps.colEQ[j] = false
		}
		for i := 0; i < nr; i++ {
			if ps.drops[i].kind != dropKeep {
				continue
			}
			for _, t := range m.rows[i] {
				j := int(t.Var)
				if ps.removed[j] {
					continue
				}
				ps.colCnt[j]++
				ps.colRow[j] = int32(i)
				ps.colCoef[j] = t.Coef
				switch m.senses[i] {
				case EQ:
					ps.colEQ[j] = true
				case LE:
					// Decreasing x_j keeps a ≤ row feasible iff coef ≥ 0.
					if t.Coef < 0 {
						ps.colOKDn[j] = false
					} else if t.Coef > 0 {
						ps.colOKUp[j] = false
					}
				case GE:
					if t.Coef > 0 {
						ps.colOKDn[j] = false
					} else if t.Coef < 0 {
						ps.colOKUp[j] = false
					}
				}
			}
		}
		for j := 0; j < nv; j++ {
			if ps.removed[j] || !canRemove(j) {
				continue
			}
			cmin := objSign * m.obj[j] // cost in minimization orientation
			lo, up := ps.lo[j], ps.up[j]
			if ps.colCnt[j] == 0 {
				// Empty column: settle at the cost-optimal finite bound.
				// An unbounded improving direction is left for the simplex
				// to certify (it may still be Infeasible elsewhere).
				switch {
				case cmin > 0 && !math.IsInf(lo, -1):
					remove(j, lo)
				case cmin < 0 && !math.IsInf(up, 1):
					remove(j, up)
				case cmin == 0:
					switch {
					case !math.IsInf(lo, -1):
						remove(j, lo)
					case !math.IsInf(up, 1):
						remove(j, up)
					default:
						remove(j, 0)
					}
				default:
					continue
				}
				changed = true
				continue
			}
			if ps.colCnt[j] == 1 && m.obj[j] == 0 && math.IsInf(up, 1) && !math.IsInf(lo, -1) {
				// Zero-cost singleton column that can grow without limit in
				// its row's slack direction: the row can always be satisfied
				// by this variable alone, so both leave the model. Postsolve
				// computes the variable from the final row activity.
				i := int(ps.colRow[j])
				a := ps.colCoef[j]
				if ps.drops[i].kind == dropKeep && canDrop(i) &&
					((m.senses[i] == GE && a > 0) || (m.senses[i] == LE && a < 0)) {
					ps.drops[i] = rowDrop{kind: dropSlackCol, v: j, coef: a}
					remove(j, math.NaN())
					changed = true
					continue
				}
			}
			if ps.colEQ[j] {
				continue
			}
			// Weak domination: moving to a bound never hurts feasibility
			// and never hurts the objective, so the variable can rest there.
			if ps.colOKDn[j] && cmin >= 0 && !math.IsInf(lo, -1) {
				remove(j, lo)
				changed = true
			} else if ps.colOKUp[j] && cmin <= 0 && !math.IsInf(up, 1) {
				remove(j, up)
				changed = true
			}
		}

		if !changed {
			break
		}
	}
	return true
}

// assembleReduced builds (or, when the reduction pattern matches the
// cached one, patches) the reduced model and the row/column maps.
func (m *Model) assembleReduced(ps *presolveState) {
	nv, nr := m.NumVars(), m.NumRows()
	if ps.sameReduction() {
		red := ps.red
		red.maximize = m.maximize
		rv := 0
		for j := 0; j < nv; j++ {
			if ps.removed[j] {
				ps.colMap[j] = -1
				continue
			}
			red.obj[rv] = m.obj[j]
			red.lo[rv] = ps.lo[j]
			red.up[rv] = ps.up[j]
			ps.colMap[j] = rv
			rv++
		}
		rr := 0
		for i := 0; i < nr; i++ {
			if ps.drops[i].kind != dropKeep {
				ps.rowMap[i] = -1
				continue
			}
			red.rhs[rr] = ps.effRhs[i]
			ps.rowMap[i] = rr
			rr++
		}
		return
	}

	red := NewModel()
	red.SetMaximize(m.maximize)
	for j := 0; j < nv; j++ {
		if ps.removed[j] {
			ps.colMap[j] = -1
			continue
		}
		ps.colMap[j] = int(red.AddVar(ps.lo[j], ps.up[j], m.obj[j], m.names[j]))
	}
	for i := 0; i < nr; i++ {
		if ps.drops[i].kind != dropKeep {
			ps.rowMap[i] = -1
			continue
		}
		terms := make([]Term, 0, len(m.rows[i]))
		for _, t := range m.rows[i] {
			if !ps.removed[int(t.Var)] {
				terms = append(terms, Term{Var: Var(ps.colMap[t.Var]), Coef: t.Coef})
			}
		}
		// Terms are already merged (they come from merged model rows), so
		// append the row directly instead of re-merging through
		// AddConstraint.
		red.rows = append(red.rows, terms)
		red.senses = append(red.senses, m.senses[i])
		red.rhs = append(red.rhs, ps.effRhs[i])
		red.std = nil
		ps.rowMap[i] = len(red.rows) - 1
	}
	ps.red = red
	ps.prevRemoved = append(ps.prevRemoved[:0], ps.removed...)
	ps.prevKept = resizeBools(ps.prevKept, nr)
	for i := 0; i < nr; i++ {
		ps.prevKept[i] = ps.drops[i].kind == dropKeep
	}
}

// solvePresolved is the Options.Presolve solve pipeline: reduce, solve the
// reduced model (warm bases and telemetry pass straight through), then map
// the solution back onto the original model.
func (m *Model) solvePresolved(opts Options) (*Solution, error) {
	ps := m.runPresolve()
	nv, nr := m.NumVars(), m.NumRows()
	if ps.status != Optimal {
		return &Solution{
			Status:      ps.status,
			X:           make([]float64, nv),
			Dual:        make([]float64, nr),
			ReducedCost: make([]float64, nv),
		}, nil
	}
	inner := opts
	inner.Presolve = false
	redSol, err := ps.red.Solve(inner)
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		Status:      redSol.Status,
		Iterations:  redSol.Iterations,
		Refactors:   redSol.Refactors,
		Timings:     redSol.Timings,
		PricingUsed: redSol.PricingUsed,
		X:           make([]float64, nv),
		Dual:        make([]float64, nr),
		ReducedCost: make([]float64, nv),
		basis:       redSol.basis,
	}
	if redSol.Status != Optimal {
		return sol, nil
	}

	// Primal: kept variables from the reduced solution, removed ones from
	// the recipe, slack columns from the residual activity of their row.
	for j := 0; j < nv; j++ {
		if ps.removed[j] {
			sol.X[j] = ps.fixVal[j]
		} else {
			sol.X[j] = redSol.X[ps.colMap[j]]
		}
	}
	for i := 0; i < nr; i++ {
		d := ps.drops[i]
		if d.kind != dropSlackCol {
			continue
		}
		rest := 0.0
		for _, t := range m.rows[i] {
			if int(t.Var) != d.v {
				rest += t.Coef * sol.X[t.Var]
			}
		}
		sol.X[d.v] = math.Max(m.lo[d.v], (m.rhs[i]-rest)/d.coef)
	}

	// Duals: kept rows from the reduced solution; dropped rows start at
	// zero and singleton rows may absorb their variable's reduced cost.
	for i := 0; i < nr; i++ {
		if r := ps.rowMap[i]; r >= 0 {
			sol.Dual[i] = redSol.Dual[r]
		} else {
			sol.Dual[i] = 0
		}
	}
	ps.buildVarRows(m)
	m.recoverSingletonDuals(ps, sol)

	// Reduced costs from the recovered duals: d_j = c_j - y·A_j in the
	// model's own orientation (see Solve's mapping).
	for j := 0; j < nv; j++ {
		sol.ReducedCost[j] = m.reducedCostAt(ps, sol.Dual, j)
	}

	obj := 0.0
	for j, c := range m.obj {
		obj += c * sol.X[j]
	}
	sol.Objective = obj
	sol.Residual = m.residual(sol.X)
	o := opts.withDefaults(0, 0)
	sol.Suspect = sol.Residual > o.ResidualTol
	return sol, nil
}

// buildVarRows (re)builds the rows-per-variable CSR index used by dual
// recovery and reduced-cost reconstruction, unless the cached one is
// still current.
func (ps *presolveState) buildVarRows(m *Model) {
	nv := m.NumVars()
	if ps.varRowsOK && len(ps.varRowPtr) == nv+1 {
		return
	}
	ps.varRowsOK = true
	ps.varRowPtr = resizeInt32s(ps.varRowPtr, nv+1)
	for i := range ps.varRowPtr {
		ps.varRowPtr[i] = 0
	}
	nnz := 0
	for _, row := range m.rows {
		nnz += len(row)
	}
	if cap(ps.varRowIdx) < nnz {
		ps.varRowIdx = make([]int32, nnz)
		ps.varRowCoef = make([]float64, nnz)
	}
	ps.varRowIdx = ps.varRowIdx[:nnz]
	ps.varRowCoef = ps.varRowCoef[:nnz]
	for _, row := range m.rows {
		for _, t := range row {
			ps.varRowPtr[t.Var+1]++
		}
	}
	for j := 0; j < nv; j++ {
		ps.varRowPtr[j+1] += ps.varRowPtr[j]
	}
	// colCnt is free at postsolve time; reuse it as the fill cursor.
	fill := resizeInt32s(ps.colCnt, nv)
	for i := range fill {
		fill[i] = 0
	}
	for i, row := range m.rows {
		for _, t := range row {
			p := ps.varRowPtr[t.Var] + fill[t.Var]
			ps.varRowIdx[p] = int32(i)
			ps.varRowCoef[p] = t.Coef
			fill[t.Var]++
		}
	}
}

// reducedCostAt computes c_j - y·A_j over the original rows.
func (m *Model) reducedCostAt(ps *presolveState, dual []float64, j int) float64 {
	d := m.obj[j]
	for p := ps.varRowPtr[j]; p < ps.varRowPtr[j+1]; p++ {
		d -= dual[ps.varRowIdx[p]] * ps.varRowCoef[p]
	}
	return d
}

// recoverSingletonDuals assigns duals to dropped singleton rows. A
// variable whose reduced cost (under the duals recovered so far) is
// dual-infeasible for its position against the *original* bounds must be
// resting on an implied bound instead; the singleton row that supplied
// that bound takes the reduced cost back as its dual, driving the
// variable's reduced cost to zero — exactly the complementary-slackness
// transfer the reduction performed in reverse.
//
// Processing order matters: a dropped singleton row contains, besides its
// own variable, only variables removed *earlier* (they had to be fixed for
// the row to become singleton). Handling kept variables first and removed
// variables in reverse removal order therefore guarantees each variable's
// reduced cost is final when inspected.
func (m *Model) recoverSingletonDuals(ps *presolveState, sol *Solution) {
	nv := m.NumVars()
	// absorbers: per variable, the dropped singleton rows that can take
	// its reduced cost, discovered from the drop recipe.
	type absorber struct {
		row  int
		next int // index into the shared list, -1 terminates
	}
	head := make([]int, nv)
	for j := range head {
		head[j] = -1
	}
	var list []absorber
	for i, d := range ps.drops {
		if d.kind == dropSingletonFix || (d.kind == dropSingletonBnd && d.strict) {
			list = append(list, absorber{row: i, next: head[d.v]})
			head[d.v] = len(list) - 1
		}
	}
	if len(list) == 0 {
		return
	}

	// absorb moves variable j's residual reduced cost d into one of its
	// absorber rows: an equality row takes any sign, an inequality row
	// only the bound direction it implied, and only when the variable
	// actually sits on that bound.
	absorb := func(j int, wantUp bool, d float64) {
		x := sol.X[j]
		for k := head[j]; k >= 0; k = list[k].next {
			i := list[k].row
			rd := ps.drops[i]
			if rd.kind == dropSingletonFix {
				sol.Dual[i] += d / rd.coef
				return
			}
			if rd.atUp == wantUp && math.Abs(x-rd.bound) <= presolveFeasTol*(1+math.Abs(x)) {
				sol.Dual[i] += d / rd.coef
				return
			}
		}
	}

	process := func(j int) {
		if head[j] < 0 {
			return
		}
		d := m.reducedCostAt(ps, sol.Dual, j)
		x := sol.X[j]
		tol := presolveFeasTol * (1 + math.Abs(x))
		dTol := 1e-9 * (1 + math.Abs(m.obj[j]))
		// Direction the objective wants to move x_j, in model orientation.
		improvingUp := d > dTol
		improvingDown := d < -dTol
		if !m.maximize {
			improvingUp, improvingDown = improvingDown, improvingUp
		}
		switch {
		case improvingUp && !(x >= m.up[j]-tol): // blocked above by an implied bound
			absorb(j, true, d)
		case improvingDown && !(x <= m.lo[j]+tol): // blocked below by an implied bound
			absorb(j, false, d)
		}
	}

	for j := 0; j < nv; j++ {
		if !ps.removed[j] {
			process(j)
		}
	}
	for k := len(ps.removeOrder) - 1; k >= 0; k-- {
		process(ps.removeOrder[k])
	}
}
