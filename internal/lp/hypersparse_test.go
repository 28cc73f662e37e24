package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// These tests drive the m ≥ nzVectorMinRows machinery — hyper-sparse
// FTRAN/BTRAN, staircase singleton peeling, the staged cold start, and
// candidate-list pricing — at a size the golden-gated small models never
// reach, without paying a Paper-scale solve. The oracle is differential
// wherever possible: the Nz solves against the dense-loop solves of the
// same factorization (independent code paths over the same data), and
// full KKT verification for the end-to-end solve.

// bigStaircaseBasis builds an m×m staircase basis like the time-expanded
// SAM matrices: mostly bidiagonal (each column couples step i to step
// i+1), with sparse long-range entries sprinkled in so the factorization
// has real L ops and the hyper-sparse worklists have real propagation.
func bigStaircaseBasis(r *rand.Rand, m int) (*standard, []int) {
	std := &standard{m: m, n: m, cols: make([][]entry, m)}
	for j := 0; j < m; j++ {
		col := []entry{{row: j, val: 2 + r.Float64()}}
		if j+1 < m {
			col = append(col, entry{row: j + 1, val: r.Float64() - 0.5})
		}
		if r.Intn(8) == 0 {
			if i := r.Intn(m); i != j && i != j+1 {
				col = append(col, entry{row: i, val: r.Float64() - 0.5})
			}
		}
		std.cols[j] = coalesce(col)
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	r.Shuffle(m, func(a, b int) { basis[a], basis[b] = basis[b], basis[a] })
	return std, basis
}

// checkNzAgainstDense verifies an Nz result against the dense-loop result
// for the same operation: every off-list entry must be exactly zero, the
// list must be duplicate-free, and the dense vectors must agree entry by
// entry.
func checkNzAgainstDense(t *testing.T, dense, sparse []float64, nz []int32, tol float64, ctx string) {
	t.Helper()
	onList := make(map[int32]bool, len(nz))
	for _, i := range nz {
		if onList[i] {
			t.Fatalf("%s: duplicate index %d in nonzero list", ctx, i)
		}
		onList[i] = true
	}
	for i := range dense {
		if math.Abs(dense[i]-sparse[i]) > tol {
			t.Fatalf("%s: entry %d: dense %g vs nz %g", ctx, i, dense[i], sparse[i])
		}
		if !onList[int32(i)] && sparse[i] != 0 {
			t.Fatalf("%s: entry %d = %g is nonzero but off the list", ctx, i, sparse[i])
		}
	}
}

// TestHyperSparseSolvesMatchDense: on a staircase basis big enough for
// the peeled refactorization path, ftranColNz/btranUnitNz must agree with
// ftranCol/btranUnit (independent loop structures over the same LU), and
// updateNz-driven eta chains must agree with update-driven ones, across
// updates and a mid-chain refactorization of the mutated basis.
func TestHyperSparseSolvesMatchDense(t *testing.T) {
	m := nzVectorMinRows + 404
	r := rand.New(rand.NewSource(71))
	std, basis := bigStaircaseBasis(r, m)

	lu := kernelFor(false).(*luFactor)
	lu.reset(m)
	if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
		t.Fatalf("refactorize outcome %v", out)
	}

	dOut := make([]float64, m)
	// The Nz contract pairs each output buffer with its own prev list
	// (the call zeroes exactly the entries the previous call on that
	// buffer produced) — so FTRAN and BTRAN results need separate
	// buffers, as in the simplex loops.
	sFtran := make([]float64, m)
	sBtran := make([]float64, m)
	var ftranPrev, btranPrev []int32

	probe := func(tag string) {
		t.Helper()
		// A sparse probe column (the common case: an entering column
		// touches a handful of rows) and a wide one (exercises the
		// degrade-to-dense sweeps once the worklist outgrows m/16).
		for pi, width := range []int{3, m / 8} {
			col := make([]entry, 0, width)
			for k := 0; k < width; k++ {
				col = append(col, entry{row: r.Intn(m), val: r.Float64() + 0.1})
			}
			col = coalesce(col)
			lu.ftranCol(col, dOut)
			ftranPrev = lu.ftranColNz(col, sFtran, ftranPrev)
			checkNzAgainstDense(t, dOut, sFtran, ftranPrev, 1e-9, tag+": ftran probe "+string(rune('a'+pi)))
		}
		for k := 0; k < 24; k++ {
			rr := r.Intn(m)
			lu.btranUnit(rr, dOut)
			btranPrev = lu.btranUnitNz(rr, sBtran, btranPrev)
			checkNzAgainstDense(t, dOut, sBtran, btranPrev, 1e-9, tag+": btran")
		}
	}

	probe("fresh factorization")

	// Eta chain: mirror pivots through updateNz on lu and update on a
	// clone, then require the two eta files to answer identically.
	mirror := lu.clone()
	w := make([]float64, m)
	var wPrev []int32
	for piv := 0; piv < 30; piv++ {
		q := r.Intn(m)
		wPrev = lu.ftranColNz(std.cols[q], w, wPrev)
		// Pick a pivot row with a safely large tableau entry.
		leave := -1
		for _, i := range wPrev {
			if math.Abs(w[i]) > 0.3 {
				leave = int(i)
				break
			}
		}
		if leave < 0 {
			continue
		}
		wc := append([]float64(nil), w...)
		lu.updateNz(leave, w, wPrev)
		mirror.update(leave, wc)
		basis[leave] = q
	}
	if lu.age() == 0 {
		t.Fatal("eta chain never applied a pivot")
	}
	for k := 0; k < 16; k++ {
		rr := r.Intn(m)
		mirror.btranUnit(rr, dOut)
		btranPrev = lu.btranUnitNz(rr, sBtran, btranPrev)
		checkNzAgainstDense(t, dOut, sBtran, btranPrev, 1e-7, "eta chain: btran")
	}
	col := coalesce([]entry{{row: r.Intn(m), val: 1.5}, {row: r.Intn(m), val: -0.7}})
	mirror.ftranCol(col, dOut)
	ftranPrev = lu.ftranColNz(col, sFtran, ftranPrev)
	checkNzAgainstDense(t, dOut, sFtran, ftranPrev, 1e-7, "eta chain: ftran")

	// Refactorize the mutated basis (peeling on a basis with real
	// replaced columns) and re-verify against ground truth.
	if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
		t.Fatalf("refactorize of mutated basis: outcome %v", out)
	}
	probe("after refactorize of mutated basis")
}

// ftranResidual returns max|B·w − a| for the basis B given by basis over
// std — the direct ground-truth check that w really is B⁻¹·a, independent
// of any kernel code path.
func ftranResidual(std *standard, basis []int, w, a []float64) float64 {
	res := make([]float64, std.m)
	for p, j := range basis {
		if w[p] == 0 {
			continue
		}
		for _, e := range std.cols[j] {
			res[e.row] += e.val * w[p]
		}
	}
	worst := 0.0
	for i := range res {
		if d := math.Abs(res[i] - a[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// btranUnitResidual returns max|outᵀ·B − eᵣᵀ|: the direct check that out is
// row r of B⁻¹.
func btranUnitResidual(std *standard, basis []int, out []float64, r int) float64 {
	worst := 0.0
	for p, j := range basis {
		dot := 0.0
		for _, e := range std.cols[j] {
			dot += out[e.row] * e.val
		}
		want := 0.0
		if p == r {
			want = 1
		}
		if d := math.Abs(dot - want); d > worst {
			worst = d
		}
	}
	return worst
}

// TestFTLongChainDifferential drives the Forrest–Tomlin update structure
// through a long pivot chain on a 4500-row staircase basis — far past the
// eta-era refactor cadence — and verifies it three ways: directly against
// the mutated basis matrix (B·w = a residuals, no kernel in the oracle),
// against a fresh refactorization of the same mutated basis, and for clone
// isolation (a mid-chain snapshot must keep answering for its own basis
// after the parent pivots on and refactorizes). Growth-triggered
// refactorizations of the FT-mutated structure are exercised in-chain,
// exactly as the solver drives them.
func TestFTLongChainDifferential(t *testing.T) {
	m := 4500
	r := rand.New(rand.NewSource(97))
	std, basis := bigStaircaseBasis(r, m)
	// bigStaircaseBasis makes every column basic (n = m); a pivot chain
	// needs a nonbasic pool, so widen the matrix with sparse random
	// columns for the chain to bring in and out.
	for j := m; j < m+m/4; j++ {
		col := []entry{{row: r.Intn(m), val: 1 + r.Float64()}}
		for k := 0; k < 2+r.Intn(3); k++ {
			col = append(col, entry{row: r.Intn(m), val: r.Float64() - 0.5})
		}
		std.cols = append(std.cols, coalesce(col))
	}
	std.n = len(std.cols)
	inBasis := make([]bool, std.n)
	for _, j := range basis {
		inBasis[j] = true
	}

	lu := kernelFor(false).(*luFactor)
	lu.reset(m)
	if !lu.ftMode {
		t.Fatalf("m=%d should select Forrest–Tomlin mode", m)
	}
	if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
		t.Fatalf("refactorize outcome %v", out)
	}

	var (
		snapshot  *luFactor // clone taken mid-chain
		basisSnap []int
	)
	w := make([]float64, m)
	var wPrev []int32
	pivots, refactors := 0, 0
	for piv := 0; pivots < 240 && piv < 2000; piv++ {
		if lu.wantRefactor() {
			if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
				t.Fatalf("growth-triggered refactorize at pivot %d: outcome %v", pivots, out)
			}
			refactors++
		}
		q := r.Intn(std.n)
		if inBasis[q] {
			continue // a basic column may not enter (mirrors basePos gating)
		}
		wPrev = lu.ftranColNz(std.cols[q], w, wPrev)
		leave := -1
		for _, i := range wPrev {
			if math.Abs(w[i]) > 0.3 {
				leave = int(i)
				break
			}
		}
		if leave < 0 {
			continue
		}
		lu.updateNz(leave, w, wPrev)
		inBasis[basis[leave]] = false
		inBasis[q] = true
		basis[leave] = q
		pivots++
		if pivots == 120 {
			snapshot = lu.clone().(*luFactor)
			basisSnap = append([]int(nil), basis...)
		}
		if pivots == 180 {
			// Refactorize mid-chain with updates still pending: the FT
			// structure (in-place U rewrites, permuted step order) must
			// rebuild cleanly from the mutated basis, and the chain then
			// keeps updating the rebuilt factor.
			if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
				t.Fatalf("mid-chain refactorize of FT-mutated basis: outcome %v", out)
			}
			refactors++
		}
	}
	if pivots < 240 {
		t.Fatalf("chain stalled at %d pivots", pivots)
	}
	if snapshot == nil {
		t.Fatal("mid-chain snapshot never taken")
	}
	if refactors == 0 {
		t.Fatal("chain never refactorized the FT-mutated basis")
	}
	t.Logf("chain: %d pivots, %d refactorizations, age %d", pivots, refactors, lu.age())

	// A fresh factorization of the same mutated basis is the differential
	// oracle; the basis matrix itself is the absolute one.
	fresh := kernelFor(false).(*luFactor)
	fresh.reset(m)
	if out := fresh.refactorize(std, basis, time.Time{}); out != refactorOK {
		t.Fatalf("fresh refactorize of mutated basis: outcome %v", out)
	}
	dOut := make([]float64, m)
	aBuf := make([]float64, m)
	sFtran := make([]float64, m)
	var ftranPrev []int32
	for k := 0; k < 12; k++ {
		col := coalesce([]entry{
			{row: r.Intn(m), val: r.Float64() + 0.2},
			{row: r.Intn(m), val: r.Float64() - 0.5},
			{row: r.Intn(m), val: 1.1},
		})
		ftranPrev = lu.ftranColNz(col, sFtran, ftranPrev)
		for i := range aBuf {
			aBuf[i] = 0
		}
		for _, e := range col {
			aBuf[e.row] = e.val
		}
		if res := ftranResidual(std, basis, sFtran, aBuf); res > 1e-6 {
			t.Fatalf("ftran probe %d: FT solve residual %g vs mutated basis", k, res)
		}
		fresh.ftranCol(col, dOut)
		checkNzAgainstDense(t, dOut, sFtran, ftranPrev, 1e-6, "FT vs fresh: ftran")
	}
	sBtran := make([]float64, m)
	var btranPrev []int32
	for k := 0; k < 12; k++ {
		rr := r.Intn(m)
		btranPrev = lu.btranUnitNz(rr, sBtran, btranPrev)
		if res := btranUnitResidual(std, basis, sBtran, rr); res > 1e-6 {
			t.Fatalf("btran probe %d: FT solve residual %g vs mutated basis", k, res)
		}
		fresh.btranUnit(rr, dOut)
		checkNzAgainstDense(t, dOut, sBtran, btranPrev, 1e-6, "FT vs fresh: btran")
	}

	// Clone isolation: the snapshot answers for the basis as of pivot 120,
	// unaffected by the parent's later updates and refactorizations.
	for k := 0; k < 8; k++ {
		rr := r.Intn(m)
		snapshot.btranUnit(rr, dOut)
		if res := btranUnitResidual(std, basisSnap, dOut, rr); res > 1e-6 {
			t.Fatalf("snapshot btran probe %d: residual %g vs its own basis", k, res)
		}
	}
	col := coalesce([]entry{{row: r.Intn(m), val: 1.5}, {row: r.Intn(m), val: -0.7}})
	snapshot.ftranCol(col, dOut)
	for i := range aBuf {
		aBuf[i] = 0
	}
	for _, e := range col {
		aBuf[e.row] = e.val
	}
	if res := ftranResidual(std, basisSnap, dOut, aBuf); res > 1e-6 {
		t.Fatalf("snapshot ftran: residual %g vs its own basis", res)
	}
}

// bigStaircaseLP builds a ~4,400-row maximization staircase (a chain of
// two-variable capacity rows plus a few wide coupling rows) just above the
// hyper-sparse and staged-start gates, and returns it with its variables.
func bigStaircaseLP() (*Model, []Var) {
	n := nzVectorMinRows + 301 // rows = n-1 chain rows + extras ≥ the gate
	r := rand.New(rand.NewSource(9))
	m := NewModel()
	m.SetMaximize(true)
	vars := make([]Var, n)
	for j := 0; j < n; j++ {
		vars[j] = m.AddVar(0, 1+2*r.Float64(), 0.5+r.Float64(), "")
	}
	for i := 0; i < n-1; i++ {
		m.AddConstraint(LE, 0.5+2*r.Float64(), Term{vars[i], 1}, Term{vars[i+1], 1})
	}
	// A few wide coupling rows so the duals are not trivially local.
	for k := 0; k < 8; k++ {
		terms := make([]Term, 0, 64)
		for j := k; j < n; j += n / 64 {
			terms = append(terms, Term{vars[j], 1})
		}
		m.AddConstraint(LE, float64(len(terms))/3, terms...)
	}
	return m, vars
}

// TestBigScaleSolveKKT runs the full solve pipeline at hyper-sparse scale
// — staged cold start, candidate-list pricing, Nz pivot loops, peeled
// refactorizations — on a staircase LP, and verifies the reported optimum
// by checking the KKT conditions directly instead of trusting the solver:
// primal feasibility, dual feasibility of every reduced cost, and
// complementary slackness on rows and bounds.
func TestBigScaleSolveKKT(t *testing.T) {
	m, vars := bigStaircaseLP()
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v, want optimal", sol.Status)
	}
	if sol.Suspect {
		t.Fatalf("solution flagged suspect, residual %g", sol.Residual)
	}

	const tol = 1e-6
	// Primal feasibility: bounds and rows.
	for j, v := range vars {
		lo, up := m.Bounds(v)
		if sol.X[v] < lo-tol || sol.X[v] > up+tol {
			t.Fatalf("var %d = %g outside [%g, %g]", j, sol.X[v], lo, up)
		}
	}
	activity := make([]float64, m.NumRows())
	for i, terms := range m.rows {
		for _, tm := range terms {
			activity[i] += tm.Coef * sol.X[tm.Var]
		}
		if activity[i] > m.rhs[i]+tol {
			t.Fatalf("row %d activity %g > rhs %g", i, activity[i], m.rhs[i])
		}
	}
	// Dual feasibility + complementary slackness. Maximization with ≤
	// rows: duals ≥ 0, zero on slack rows; reduced cost ≤ 0 at lower
	// bound, ≥ 0 at upper bound, ≈ 0 strictly between.
	for i := range m.rows {
		if sol.Dual[i] < -tol {
			t.Fatalf("row %d dual %g < 0", i, sol.Dual[i])
		}
		if m.rhs[i]-activity[i] > tol && math.Abs(sol.Dual[i]) > tol {
			t.Fatalf("row %d slack %g but dual %g", i, m.rhs[i]-activity[i], sol.Dual[i])
		}
	}
	for j, v := range vars {
		lo, up := m.Bounds(v)
		d := sol.ReducedCost[v]
		switch {
		case sol.X[v] < lo+tol:
			if d > tol {
				t.Fatalf("var %d at lower bound with reduced cost %g > 0", j, d)
			}
		case sol.X[v] > up-tol:
			if d < -tol {
				t.Fatalf("var %d at upper bound with reduced cost %g < 0", j, d)
			}
		default:
			if math.Abs(d) > tol {
				t.Fatalf("interior var %d has reduced cost %g", j, d)
			}
		}
	}

	// Strong duality: c·x must equal y·b + the bound contributions; with
	// KKT already verified entrywise, a matching dual objective closes
	// the certificate.
	dualObj := 0.0
	for i := range m.rows {
		dualObj += sol.Dual[i] * m.rhs[i]
	}
	for _, v := range vars {
		_, up := m.Bounds(v)
		if rc := sol.ReducedCost[v]; rc > tol {
			dualObj += rc * up
		}
	}
	if math.Abs(dualObj-sol.Objective) > 1e-4*(1+math.Abs(sol.Objective)) {
		t.Fatalf("duality gap: primal %g vs dual %g", sol.Objective, dualObj)
	}

	// Warm re-solve after a bound nudge must use the nz warm path and
	// stay optimal in few pivots.
	m.SetBounds(vars[7], 0, 0.25)
	warm, err := m.Solve(Options{WarmBasis: sol.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if warm.Iterations > sol.Iterations/2 {
		t.Fatalf("warm re-solve took %d pivots (cold %d) — warm start not engaged?",
			warm.Iterations, sol.Iterations)
	}
}

// bigArtificialLP builds a maximization staircase above stagedStartMinRows
// with zero-rhs equality "load" rows and small-rhs GE rows — the row mix of
// the SAM LP — so the staged cold start ends with some artificials still
// basic at zero.
func bigArtificialLP() *Model {
	n := stagedStartMinRows + 101
	r := rand.New(rand.NewSource(9))
	m := NewModel()
	m.SetMaximize(true)
	vars := make([]Var, n)
	for j := 0; j < n; j++ {
		vars[j] = m.AddVar(0, 1+2*r.Float64(), 0.5+r.Float64(), "")
	}
	for i := 0; i < n-1; i++ {
		m.AddConstraint(LE, 0.5+2*r.Float64(), Term{vars[i], 1}, Term{vars[i+1], 1})
	}
	for k := 0; k+1 < n; k += 7 {
		load := m.AddVar(0, Inf, -0.05, "")
		m.AddConstraint(EQ, 0, Term{vars[k], 1}, Term{vars[k+1], 1}, Term{load, -1})
	}
	for k := 3; k+2 < n; k += 11 {
		m.AddConstraint(GE, 0.1, Term{vars[k], 1}, Term{vars[k+2], 1})
	}
	return m
}

// basicArtificials counts the artificial columns in a captured basis.
func basicArtificials(std *standard, b *Basis) int {
	n := 0
	for _, j := range b.basic {
		if std.art[j] {
			n++
		}
	}
	return n
}

// checkStrongDuality closes a KKT certificate: the dual objective — y·b
// plus each nonzero reduced cost times the bound its variable rests on —
// must equal the primal objective.
func checkStrongDuality(t *testing.T, m *Model, sol *Solution, tag string) {
	t.Helper()
	const tol = 1e-6
	dualObj := 0.0
	for i := range m.rows {
		dualObj += sol.Dual[i] * m.rhs[i]
	}
	for j := range m.obj {
		d := sol.ReducedCost[j]
		if math.Abs(d) <= tol {
			continue
		}
		// In the model's orientation a variable whose reduced cost would
		// improve the objective by growing rests at its upper bound.
		bound := m.lo[j]
		if (d > 0) == m.maximize {
			bound = m.up[j]
		}
		if math.IsInf(bound, 0) {
			t.Errorf("%s: var %d has reduced cost %g toward an infinite bound", tag, j, d)
			continue
		}
		dualObj += d * bound
	}
	if math.Abs(dualObj-sol.Objective) > 1e-4*(1+math.Abs(sol.Objective)) {
		t.Errorf("%s: duality gap: primal %g vs dual %g", tag, sol.Objective, dualObj)
	}
}

// TestBigScaleWarmKeepsBasicArtificials: above stagedStartMinRows a warm
// re-solve leaves the basic artificials the staged cold start left at zero
// where they are, so a re-solve of the unchanged model from its own
// optimal basis takes no pivots — and its answer still passes the full KKT
// and strong-duality certificate.
func TestBigScaleWarmKeepsBasicArtificials(t *testing.T) {
	m := bigArtificialLP()
	var stats SolveStats
	cold, err := m.Solve(Options{Stats: &stats})
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", err, cold.Status)
	}
	std, err := m.standardized()
	if err != nil {
		t.Fatal(err)
	}
	if std.m < stagedStartMinRows {
		t.Fatalf("m = %d is below the staged-start gate %d", std.m, stagedStartMinRows)
	}
	arts := basicArtificials(std, cold.Basis())
	if arts == 0 {
		t.Fatal("the cold basis carries no basic artificials; the test no longer reaches the path it pins")
	}

	warm, err := m.Solve(Options{Stats: &stats, WarmBasis: cold.Basis()})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm: %v %v", err, warm.Status)
	}
	if stats.WarmStarts != 1 {
		t.Fatalf("WarmStarts = %d, want 1", stats.WarmStarts)
	}
	if warm.Iterations != 0 {
		t.Errorf("warm re-solve of the unchanged model took %d pivots, want 0", warm.Iterations)
	}
	if got := basicArtificials(std, warm.Basis()); got != arts {
		t.Errorf("warm basis carries %d basic artificials, the cold one %d", got, arts)
	}
	if d := math.Abs(warm.Objective-cold.Objective) / (1 + math.Abs(cold.Objective)); d > 1e-7 {
		t.Errorf("warm objective %v vs cold %v", warm.Objective, cold.Objective)
	}
	if warm.Suspect {
		t.Errorf("warm solution flagged suspect, residual %g", warm.Residual)
	}
	checkOptimalityCertificate(t, m, warm, "warm")
	checkStrongDuality(t, m, warm, "warm")
}

// TestPricingAutoPolicy pins the only entering-rule selector: Dantzig below
// stagedStartMinRows, cold or warm; devex on a cold solve at or above it,
// and Dantzig again on a warm re-solve there.
func TestPricingAutoPolicy(t *testing.T) {
	solvePair := func(t *testing.T, m *Model) (cold, warm *Solution, std *standard) {
		t.Helper()
		var stats SolveStats
		cold, err := m.Solve(Options{Stats: &stats})
		if err != nil || cold.Status != Optimal {
			t.Fatalf("cold: %v %v", err, cold.Status)
		}
		warm, err = m.Solve(Options{Stats: &stats, WarmBasis: cold.Basis()})
		if err != nil || warm.Status != Optimal {
			t.Fatalf("warm: %v %v", err, warm.Status)
		}
		if stats.WarmStarts != 1 {
			t.Fatalf("WarmStarts = %d, want 1: the re-solve did not start warm", stats.WarmStarts)
		}
		if std, err = m.standardized(); err != nil {
			t.Fatal(err)
		}
		return cold, warm, std
	}

	t.Run("below-gate", func(t *testing.T) {
		cold, warm, std := solvePair(t, samShapedLP(rand.New(rand.NewSource(5000)), 1.0))
		if std.m >= stagedStartMinRows {
			t.Fatalf("m = %d is not below the gate %d", std.m, stagedStartMinRows)
		}
		if cold.PricingUsed != PricingDantzig || warm.PricingUsed != PricingDantzig {
			t.Errorf("PricingUsed cold=%q warm=%q, want dantzig for both", cold.PricingUsed, warm.PricingUsed)
		}
	})
	t.Run("at-gate", func(t *testing.T) {
		m, _ := bigStaircaseLP()
		cold, warm, std := solvePair(t, m)
		if std.m < stagedStartMinRows {
			t.Fatalf("m = %d is below the gate %d", std.m, stagedStartMinRows)
		}
		if cold.PricingUsed != PricingDevex {
			t.Errorf("cold PricingUsed = %q, want devex", cold.PricingUsed)
		}
		if warm.PricingUsed != PricingDantzig {
			t.Errorf("warm PricingUsed = %q, want dantzig", warm.PricingUsed)
		}
	})
}
