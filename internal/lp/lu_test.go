package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// randSparseBasis builds a standardized skeleton whose columns 0..m-1 form a
// nonsingular sparse basis: a shuffled diagonally dominant matrix with a
// couple of off-diagonal nonzeros per column.
func randSparseBasis(r *rand.Rand, m int) (*standard, []int) {
	std := &standard{m: m, n: m, cols: make([][]entry, m)}
	for j := 0; j < m; j++ {
		col := []entry{{row: j, val: 2 + r.Float64()}}
		for k := 0; k < 2; k++ {
			if i := r.Intn(m); i != j {
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

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// compareKernels checks that two factorizations answer every FTRAN/BTRAN
// form identically (within tol) on random probes.
func compareKernels(t *testing.T, r *rand.Rand, lu, dn factor, m int, tol float64, ctx string) {
	t.Helper()
	probeCol := make([]entry, 0, 3)
	for k := 0; k < 3; k++ {
		probeCol = append(probeCol, entry{row: r.Intn(m), val: r.Float64() + 0.1})
	}
	probeCol = coalesce(probeCol)
	dense := make([]float64, m)
	for i := range dense {
		dense[i] = r.Float64() - 0.5
	}
	a1, a2 := make([]float64, m), make([]float64, m)

	lu.ftranCol(probeCol, a1)
	dn.ftranCol(probeCol, a2)
	if d := maxAbsDiff(a1, a2); d > tol {
		t.Fatalf("%s: ftranCol mismatch %g", ctx, d)
	}
	lu.ftranDense(dense, a1)
	dn.ftranDense(dense, a2)
	if d := maxAbsDiff(a1, a2); d > tol {
		t.Fatalf("%s: ftranDense mismatch %g", ctx, d)
	}
	lu.btran(dense, a1)
	dn.btran(dense, a2)
	if d := maxAbsDiff(a1, a2); d > tol {
		t.Fatalf("%s: btran mismatch %g", ctx, d)
	}
	for rr := 0; rr < m; rr++ {
		lu.btranUnit(rr, a1)
		dn.btranUnit(rr, a2)
		if d := maxAbsDiff(a1, a2); d > tol {
			t.Fatalf("%s: btranUnit(%d) mismatch %g", ctx, rr, d)
		}
	}
}

// TestLUMatchesDenseOnRandomBases: a fresh sparse LU factorization must
// agree with the dense Gauss-Jordan inverse on every solve form.
func TestLUMatchesDenseOnRandomBases(t *testing.T) {
	for _, m := range []int{1, 2, 5, 17, 40, 73} {
		for trial := 0; trial < 4; trial++ {
			r := rand.New(rand.NewSource(int64(100*m + trial)))
			std, basis := randSparseBasis(r, m)
			lu, dn := kernelFor(false), kernelFor(true)
			lu.reset(m)
			dn.reset(m)
			if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
				t.Fatalf("m=%d trial=%d: lu refactorize outcome %v", m, trial, out)
			}
			if out := dn.refactorize(std, basis, time.Time{}); out != refactorOK {
				t.Fatalf("m=%d trial=%d: dense refactorize outcome %v", m, trial, out)
			}
			compareKernels(t, r, lu, dn, m, 1e-9, "fresh")
		}
	}
}

// TestLUEtaUpdatesMatchDense: after a chain of product-form updates the eta
// file must keep agreeing with (a) the dense kernel fed the same pivots and
// (b) a fresh factorization of the mutated basis — the ground truth.
func TestLUEtaUpdatesMatchDense(t *testing.T) {
	const m = 23
	for trial := 0; trial < 4; trial++ {
		r := rand.New(rand.NewSource(int64(900 + trial)))
		std, basis := randSparseBasis(r, m)
		lu, dn := kernelFor(false), kernelFor(true)
		lu.reset(m)
		dn.reset(m)
		if lu.refactorize(std, basis, time.Time{}) != refactorOK ||
			dn.refactorize(std, basis, time.Time{}) != refactorOK {
			t.Fatal("refactorize failed on a nonsingular basis")
		}
		w := make([]float64, m)
		wCopy := make([]float64, m)
		updates := 0
		for step := 0; step < 60 && updates < 12; step++ {
			// Random entering column, appended to the skeleton so a fresh
			// refactorization can rebuild the mutated basis later.
			col := []entry{{row: r.Intn(m), val: 1 + r.Float64()}}
			for k := 0; k < 3; k++ {
				col = append(col, entry{row: r.Intn(m), val: r.Float64() - 0.5})
			}
			col = coalesce(col)
			lu.ftranCol(col, w)
			pr, best := -1, 0.3 // only accept well-conditioned pivots
			for i := range w {
				if v := math.Abs(w[i]); v > best {
					pr, best = i, v
				}
			}
			if pr < 0 {
				continue
			}
			copy(wCopy, w)
			lu.update(pr, w)
			dn.update(pr, wCopy)
			std.cols = append(std.cols, col)
			basis[pr] = std.n
			std.n++
			updates++
		}
		if updates < 6 {
			t.Fatalf("trial %d: only %d usable updates", trial, updates)
		}
		if lu.age() != updates || dn.age() != updates {
			t.Fatalf("age mismatch: lu=%d dense=%d want %d", lu.age(), dn.age(), updates)
		}
		compareKernels(t, r, lu, dn, m, 1e-7, "after etas")

		// Ground truth: refactorize fresh kernels on the mutated basis.
		fresh := kernelFor(false)
		fresh.reset(m)
		if fresh.refactorize(std, basis, time.Time{}) != refactorOK {
			t.Fatal("fresh refactorize of mutated basis failed")
		}
		compareKernels(t, r, lu, fresh, m, 1e-6, "etas vs fresh LU")
		if fresh.age() != 0 {
			t.Fatalf("refactorize must reset age, got %d", fresh.age())
		}
	}
}

// TestFactorSingularDetection: a structurally singular basis (duplicated
// column) must be reported by both kernels, not silently mis-factorized.
func TestFactorSingularDetection(t *testing.T) {
	const m = 9
	r := rand.New(rand.NewSource(7))
	std, basis := randSparseBasis(r, m)
	basis[3] = basis[6] // duplicate column => singular B
	for _, dense := range []bool{false, true} {
		f := kernelFor(dense)
		f.reset(m)
		if out := f.refactorize(std, basis, time.Time{}); out != refactorSingular {
			t.Fatalf("dense=%v: singular basis gave outcome %v", dense, out)
		}
	}
}

// TestRefactorizeHonorsDeadline: an expired TimeBudget deadline must abort
// the factorization itself with refactorTimeout — the PR-3 guardrail
// extended inside the kernels, so one huge refactorization cannot blow a
// control-loop step budget.
func TestRefactorizeHonorsDeadline(t *testing.T) {
	const m = 50
	r := rand.New(rand.NewSource(11))
	std, basis := randSparseBasis(r, m)
	expired := time.Now().Add(-time.Second)
	for _, dense := range []bool{false, true} {
		f := kernelFor(dense)
		f.reset(m)
		if out := f.refactorize(std, basis, expired); out != refactorTimeout {
			t.Fatalf("dense=%v: expired deadline gave outcome %v", dense, out)
		}
	}
}

// TestLUGrowthTriggersRefactor: piling dense-ish eta updates onto a sparse
// factorization must eventually trip wantRefactor (the eta-file growth
// policy), and the subsequent refactorization must restore accuracy.
func TestLUGrowthTriggersRefactor(t *testing.T) {
	const m = 12
	r := rand.New(rand.NewSource(21))
	std, basis := randSparseBasis(r, m)
	lu := kernelFor(false)
	lu.reset(m)
	if lu.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize failed")
	}
	w := make([]float64, m)
	tripped := false
	for step := 0; step < 400; step++ {
		col := make([]entry, 0, m)
		for i := 0; i < m; i++ {
			col = append(col, entry{row: i, val: r.Float64() + 0.05})
		}
		lu.ftranCol(col, w)
		pr, best := -1, 0.2
		for i := range w {
			if v := math.Abs(w[i]); v > best {
				pr, best = i, v
			}
		}
		if pr < 0 {
			continue
		}
		lu.update(pr, w)
		std.cols = append(std.cols, col)
		basis[pr] = std.n
		std.n++
		if lu.wantRefactor() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("eta-file growth never tripped wantRefactor")
	}
	if lu.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize after growth failed")
	}
	if lu.wantRefactor() || lu.age() != 0 {
		t.Fatal("refactorize must clear the growth trigger and the eta file")
	}
	dn := kernelFor(true)
	dn.reset(m)
	if dn.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("dense refactorize failed")
	}
	compareKernels(t, r, lu, dn, m, 1e-8, "post-growth refactor")
}

// TestNzAPIsEtaModeMatchDense pins the nonzero-list solve and update APIs
// in product-form (eta) mode — the non-FT fallback a future kernel below
// the FT gate would rely on. The Nz calls have no size restriction, so a
// small factor exercises the eta-replay branches of ftranColNz/btranUnitNz
// and the eta-building body of updateNz directly against the dense-loop
// answers for the same factor.
func TestNzAPIsEtaModeMatchDense(t *testing.T) {
	const m = 40
	r := rand.New(rand.NewSource(77))
	std, basis := randSparseBasis(r, m)
	lu := kernelFor(false).(*luFactor)
	lu.reset(m)
	if lu.ftMode {
		t.Fatalf("m=%d must stay in product-form mode", m)
	}
	if out := lu.refactorize(std, basis, time.Time{}); out != refactorOK {
		t.Fatalf("refactorize outcome %v", out)
	}

	dOut := make([]float64, m)
	sFtran := make([]float64, m)
	sBtran := make([]float64, m)
	var ftranPrev, btranPrev []int32
	probe := func(tag string) {
		t.Helper()
		for k := 0; k < 8; k++ {
			col := coalesce([]entry{
				{row: r.Intn(m), val: r.Float64() + 0.2},
				{row: r.Intn(m), val: r.Float64() - 0.5},
			})
			lu.ftranCol(col, dOut)
			ftranPrev = lu.ftranColNz(col, sFtran, ftranPrev)
			checkNzAgainstDense(t, dOut, sFtran, ftranPrev, 1e-9, tag+": ftran")
		}
		for rr := 0; rr < m; rr++ {
			lu.btranUnit(rr, dOut)
			btranPrev = lu.btranUnitNz(rr, sBtran, btranPrev)
			checkNzAgainstDense(t, dOut, sBtran, btranPrev, 1e-9, tag+": btran")
		}
	}
	probe("fresh")

	// Drive an eta chain through updateNz (the list-fed eta builder) and
	// keep the Nz solves honest against the dense loops over the same
	// growing eta file.
	w := make([]float64, m)
	var wPrev []int32
	pivots := 0
	for piv := 0; piv < 60 && pivots < 12; piv++ {
		q := r.Intn(m)
		wPrev = lu.ftranColNz(std.cols[q], w, wPrev)
		for _, i := range wPrev {
			if math.Abs(w[i]) > 0.3 {
				lu.updateNz(int(i), w, wPrev)
				basis[i] = q
				pivots++
				break
			}
		}
	}
	if len(lu.etas) == 0 {
		t.Fatal("updateNz built no etas in eta mode")
	}
	probe("after updateNz eta chain")
}

// TestFTFillGrowthTrigger pins the adaptive refactorization policy of the
// Forrest–Tomlin kernel: wantRefactor fires on measured update fill (spike
// entries plus absorbed op multipliers) crossing the factor-relative limit,
// not on any fixed pivot-count cadence — the solver's cadence constant is
// only a numerical-drift backstop in FT mode. The boundary arithmetic is
// asserted exactly, then a real update chain is checked to (a) accumulate
// fill and (b) clear the trigger state on refactorize.
func TestFTFillGrowthTrigger(t *testing.T) {
	m := nzVectorMinRows // smallest FT-mode size
	f := kernelFor(false).(*luFactor)
	f.reset(m)
	if !f.ftMode {
		t.Fatalf("m=%d must select FT mode", m)
	}
	if f.wantRefactor() {
		t.Fatal("fresh identity factor must not want a refactorization")
	}
	limit := ftGrowthLimit*f.baseNnz + 4*f.m
	f.ftNnz = limit
	if f.wantRefactor() {
		t.Fatal("fill at the limit must not trigger (ceiling is inclusive)")
	}
	f.ftNnz = limit + 1
	if !f.wantRefactor() {
		t.Fatal("fill beyond the limit must trigger")
	}
	f.ftNnz = 0

	// A real pivot accumulates measured fill, and a refactorization resets
	// both the fill counter and the update age.
	r := rand.New(rand.NewSource(53))
	std, basis := bigStaircaseBasis(r, m)
	if f.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize failed")
	}
	w := make([]float64, m)
	var wPrev []int32
	for piv := 0; piv < 50 && f.ftNnz == 0; piv++ {
		q := r.Intn(m)
		wPrev = f.ftranColNz(std.cols[q], w, wPrev)
		for _, i := range wPrev {
			if math.Abs(w[i]) > 0.3 {
				f.updateNz(int(i), w, wPrev)
				basis[i] = q
				break
			}
		}
	}
	if f.ftNnz == 0 || f.nupd == 0 {
		t.Fatalf("update chain accumulated no measured fill (ftNnz=%d nupd=%d)", f.ftNnz, f.nupd)
	}
	if f.refactorize(std, basis, time.Time{}) != refactorOK {
		t.Fatal("refactorize of updated basis failed")
	}
	if f.ftNnz != 0 || f.age() != 0 || f.wantRefactor() {
		t.Fatalf("refactorize must reset the fill trigger (ftNnz=%d age=%d)", f.ftNnz, f.age())
	}
}

// TestFactorCloneIsolation: clone() must be a deep snapshot for both
// kernels — updates on the original after cloning (the exact aliasing
// hazard the old dense capture had) must not leak into the clone, and vice
// versa.
func TestFactorCloneIsolation(t *testing.T) {
	const m = 15
	for _, dense := range []bool{false, true} {
		r := rand.New(rand.NewSource(31))
		std, basis := randSparseBasis(r, m)
		f := kernelFor(dense)
		f.reset(m)
		if f.refactorize(std, basis, time.Time{}) != refactorOK {
			t.Fatalf("dense=%v: refactorize failed", dense)
		}
		// Put one eta on the original so the clone must snapshot a
		// non-trivial pivot history too.
		w := make([]float64, m)
		col := []entry{{row: 2, val: 1.5}, {row: 7, val: -0.4}}
		f.ftranCol(col, w)
		f.update(2, w)

		probe := make([]float64, m)
		for i := range probe {
			probe[i] = r.Float64() - 0.5
		}
		before := make([]float64, m)
		f.ftranDense(probe, before)

		snap := f.clone()
		if snap.age() != f.age() || !sameKernel(snap, f) {
			t.Fatalf("dense=%v: clone metadata mismatch", dense)
		}

		// Mutate the original: several more pivots and then a full
		// refactorization (both mutation classes the snapshot must survive).
		for k := 0; k < 5; k++ {
			col := []entry{{row: (3*k + 1) % m, val: 2 + float64(k)}, {row: (k + 5) % m, val: 0.3}}
			f.ftranCol(col, w)
			pr := 0
			for i := range w {
				if math.Abs(w[i]) > math.Abs(w[pr]) {
					pr = i
				}
			}
			f.update(pr, w)
		}
		f.refactorize(std, basis, time.Time{})

		after := make([]float64, m)
		snap.ftranDense(probe, after)
		if d := maxAbsDiff(before, after); d != 0 {
			t.Fatalf("dense=%v: mutating the original changed the clone by %g", dense, d)
		}

		// And the other direction: pivoting on the clone must not disturb
		// the (freshly refactorized) original.
		f.ftranDense(probe, before)
		snap.ftranCol(col, w)
		snap.update(1, w)
		f.ftranDense(probe, after)
		if d := maxAbsDiff(before, after); d != 0 {
			t.Fatalf("dense=%v: mutating the clone changed the original by %g", dense, d)
		}
	}
}
