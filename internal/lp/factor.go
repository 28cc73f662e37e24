package lp

import "time"

// refactorOutcome classifies a basis refactorization attempt.
type refactorOutcome int8

const (
	// refactorOK: the representation now matches the basis columns exactly.
	refactorOK refactorOutcome = iota
	// refactorSingular: the basis matrix is numerically singular.
	refactorSingular
	// refactorTimeout: Options.TimeBudget expired mid-factorization. The
	// representation is unusable; the solve must surface TimeLimit.
	refactorTimeout
)

// factor is the basis representation behind the revised simplex: everything
// the pivot loops need from B⁻¹, expressed operationally. Production solves
// run the sparse LU factorization (luFactor); the tests substitute a dense-
// inverse reference kernel through Options.kernel and compare the two.
//
// Vector index conventions, fixed by the simplex loops: FTRAN inputs are
// indexed by constraint row and outputs by basis position (w[i] pairs with
// basis[i]); BTRAN inputs are indexed by basis position and outputs by
// constraint row (duals live in row space).
type factor interface {
	// reset installs the exact identity basis (the cold-start slack/
	// artificial basis is the identity matrix by construction), clearing
	// any pivot history.
	reset(m int)
	// refactorize rebuilds the representation from the basis columns of
	// std. deadline (zero value = none) is the wall-clock guardrail from
	// Options.TimeBudget, checked periodically inside the factorization so
	// a large refactorization cannot blow the control loop's budget.
	refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome
	// ftranCol computes out = B⁻¹·a for a sparse column a. out is dense,
	// fully overwritten, len m.
	ftranCol(col []entry, out []float64)
	// ftranDense computes out = B⁻¹·x for dense x (out must not alias x).
	ftranDense(x, out []float64)
	// btran computes out = B⁻ᵀ·x, i.e. outᵀ = xᵀB⁻¹ (out must not alias x).
	btran(x, out []float64)
	// btranUnit computes out = eᵣᵀB⁻¹ — row r of the basis inverse, the
	// vector the dual ratio test and the incremental dual update consume.
	btranUnit(r int, out []float64)
	// update applies the product-form pivot replacing the basis column at
	// position r with the entering column whose tableau form is w = B⁻¹a_q.
	// w is consumed (the caller's scratch; the kernel must copy what it
	// keeps).
	update(r int, w []float64)
	// ftranColNz is the hyper-sparse form of ftranCol for large models: it
	// zeroes out's entries at prev (the list the previous call returned for
	// this buffer), computes only the reachable entries, and returns their
	// deduplicated (unsorted) index list. Everything off the list is exactly
	// zero. The caller owns one prev list per output buffer and must thread
	// it through every call.
	ftranColNz(col []entry, out []float64, prev []int32) []int32
	// btranUnitNz is the hyper-sparse form of btranUnit, same contract as
	// ftranColNz (indices are constraint rows).
	btranUnitNz(r int, out []float64, prev []int32) []int32
	// updateNz is update with the column's nonzero list (sorted ascending)
	// supplied, letting the kernel skip its O(m) scan of w.
	updateNz(r int, w []float64, wnz []int32)
	// age counts product-form pivots applied since the last reset or
	// refactorization — the periodic-refactorization hygiene counter.
	age() int
	// wantRefactor reports that the representation itself asks for an
	// early refactorization (eta-file growth or a drift-suspect pivot),
	// independent of the periodic Options.RefactorEvery cadence.
	wantRefactor() bool
	// clone returns a deep snapshot: no later update or refactorize on
	// either copy may affect the other. Basis capture depends on this.
	clone() factor
}

// newFactor returns the basis kernel for one solve: the sparse LU
// factorization, unless a package test substituted another kernel.
func (o Options) newFactor() factor {
	if o.kernel != nil {
		return o.kernel()
	}
	return &luFactor{}
}

// expired reports whether the wall-clock deadline (zero value = none) has
// passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}
