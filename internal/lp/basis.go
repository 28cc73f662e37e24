package lp

import "math"

// Basis is an opaque snapshot of a simplex basis, taken at the end of a
// Solve and usable to warm-start a later solve of a structurally identical
// model (same variables, bounds pattern, and constraint senses — only
// objective coefficients and right-hand sides may differ). Warm starts are
// always safe: a basis that does not match the new model's structure, is
// numerically singular at refactorization, or cannot be repaired for the
// new data is silently discarded and the solve falls back to a cold start.
//
// A basis that is structurally valid but primal infeasible for the new
// right-hand side (the common case after any RHS change: xB = B⁻¹b picks
// up every perturbation through the inverse) is not discarded immediately:
// if it is still dual feasible — which RHS-only changes preserve, since
// reduced costs do not depend on b — a short dual-simplex cleanup restores
// primal feasibility in a few pivots before phase 2 runs.
//
// The intended use is the SAM/PC control loop: successive re-solves of the
// same LP skeleton after an RHS or objective perturbation typically need a
// handful of pivots from the previous optimal basis instead of a full
// two-phase solve from scratch.
type Basis struct {
	m, n    int    // standardized row/column counts
	sig     uint64 // signature of the standardization (layout and matrix)
	signs   uint64 // fingerprint of its row normalization signs
	basic   []int  // basic standardized column per row
	atUpper []bool // nonbasic-at-upper flag per standardized column

	// fac is a deep snapshot of the basis representation (sparse LU + eta
	// file, or the dense reference inverse) as of capture. It is cloned on
	// capture and cloned again on install, so no later solve — on the
	// originating state or any state the basis is installed into — can
	// mutate the snapshot. Because sig covers the constraint matrix
	// entries, a signature and row-sign match guarantees the same basis
	// matrix, so the factorization can be reinstalled directly — skipping the
	// refactorization that would otherwise eat much of the warm-start
	// saving. Its age (product-form pivots since the last refactorization)
	// rides along inside the snapshot so the periodic-refactorization
	// hygiene policy spans chains of warm solves exactly as it spans pivots
	// within one solve.
	fac factor
}

// signature fingerprints the standardization: column count, row count, the
// artificial-column pattern (which encodes the normalized senses), and
// every constraint-matrix nonzero, structural entries taken in the model's
// own row orientation (before the b ≥ 0 normalization negated any row).
// Models that hash equal share an index space and a constraint matrix up
// to those row signs — only right-hand sides, bounds, objective, and the
// signs of rows whose layout a flip leaves alone (equality rows) may
// differ — so a captured basis names the same columns of an equivalent
// matrix: D·B is nonsingular exactly when B is, for any diagonal D of
// ±1. Its factorization is only valid for the same row signs, which
// rowSigns fingerprints.
//
// Both hashes are computed once per standardization: m, n, art, cols and
// rowSign are fixed when standardize returns (refreshStandard rewrites
// only costs, bounds, shifts and b; any edit that would change a matrix
// entry — a structural edit, a standardization-branch switch, a row-sign
// flip — builds a new standard instead).
func (std *standard) signature() uint64 {
	std.fingerprint()
	return std.sig
}

// rowSigns fingerprints the standardization's row normalization signs.
func (std *standard) rowSigns() uint64 {
	std.fingerprint()
	return std.signs
}

// fingerprint computes sig and signs on first use.
func (std *standard) fingerprint() {
	if std.sigOK {
		return
	}
	std.sigOK = true
	h := newHasher()
	h.mix(uint64(std.m))
	h.mix(uint64(std.n))
	for j, isArt := range std.art {
		if isArt {
			h.mix(uint64(j))
		}
	}
	for j, col := range std.cols {
		h.mix(uint64(len(col)))
		for _, e := range col {
			v := e.val
			if j < std.nStruct {
				v *= std.rowSign[e.row]
			}
			h.mix(uint64(e.row))
			h.mix(math.Float64bits(v))
		}
	}
	std.sig = uint64(h)
	h = newHasher()
	for _, sg := range std.rowSign {
		h.mix(math.Float64bits(sg))
	}
	std.signs = uint64(h)
}

// hasher folds 64-bit words through a full-avalanche (splitmix64)
// finalizer. A bare multiply-xor step (FNV over whole words) only carries
// a difference upward: a flipped sign bit lands on bit 63 alone, so two
// sign flips cancel, and a matrix with an even number of negated
// coefficients hashed equal to the original.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) mix(v uint64) {
	x := uint64(*h) ^ v
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	*h = hasher(x)
}

// matches reports whether the basis was captured from a standardization
// with the same layout and matrix (up to row signs) as std.
func (b *Basis) matches(std *standard) bool {
	return b != nil && b.m == std.m && b.n == std.n && b.sig == std.signature()
}

// capture snapshots the current basis of st. The factorization is deep-
// cloned, so later pivots on st (or a fresh solve reusing the state) can
// never corrupt the captured snapshot — the regression test
// TestCaptureSurvivesLaterMutation locks this contract in.
func (st *state) capture() *Basis {
	return &Basis{
		m:       st.std.m,
		n:       st.std.n,
		sig:     st.std.signature(),
		signs:   st.std.rowSigns(),
		basic:   append([]int(nil), st.basis...),
		atUpper: append([]bool(nil), st.atUpper...),
		fac:     st.fac.clone(),
	}
}

// warmFit classifies how a warm basis fits the new model data.
type warmFit int

const (
	// warmNo: the basis is structurally unusable (bad indices, atUpper on
	// an unbounded column, or a singular basis matrix). Cold start.
	warmNo warmFit = iota
	// warmPrimal: the basis is primal feasible for the new data; phase 2
	// can start immediately.
	warmPrimal
	// warmRepair: the basis is valid and nonsingular but primal infeasible
	// for the new right-hand side. If it is still dual feasible, a
	// dual-simplex cleanup can repair it; otherwise cold start.
	warmRepair
)

// warmFeasTol is the primal feasibility tolerance shared by the warm-start
// install check and the dual-simplex cleanup.
const warmFeasTol = 1e-7

// effUpper is column j's upper bound as enforced by the warm-start path:
// artificials must stay at zero, so they get an effective upper bound of 0
// regardless of their nominal (infinite) bound.
func (st *state) effUpper(j int) float64 {
	if st.std.art[j] {
		return 0
	}
	return st.std.up[j]
}

// installWarm loads a structurally matching basis into st and classifies
// the result: warmPrimal when the implied basic values are primal feasible
// (with basic artificials at numerical zero), warmRepair when the basis is
// valid but the new right-hand side pushed some basic value out of bounds,
// warmNo when the basis is unusable. On warmNo the caller must fall back
// to a cold start and fully re-initialize st.
func (st *state) installWarm(b *Basis) warmFit {
	std := st.std
	copy(st.basis, b.basic)
	for j := range st.basePos {
		st.basePos[j] = 0
	}
	for i, j := range st.basis {
		if j < 0 || j >= std.n || st.basePos[j] != 0 {
			return warmNo // out of range or duplicate basic column
		}
		st.basePos[j] = i + 1
	}
	copy(st.atUpper, b.atUpper)
	for j, up := range st.atUpper {
		if up && math.IsInf(std.up[j], 1) {
			return warmNo // cannot rest at an infinite upper bound
		}
	}
	if b.fac != nil && b.fac.denseKernel() == st.fac.denseKernel() && b.signs == std.rowSigns() &&
		b.fac.age() < st.refactorEvery && !b.fac.wantRefactor() {
		// Reuse the captured factorization: the signature and row-sign
		// match guarantees the basis matrix is identical, so the snapshot
		// still represents B⁻¹ for the new model and the refactorization can be skipped
		// outright — the dominant cost of a warm install. The snapshot is
		// cloned again so this solve's pivots cannot corrupt the caller's
		// Basis (which may warm-start further solves). Only the basic
		// values need recomputing against the new right-hand side.
		st.fac = b.fac.clone()
		st.recomputeXB()
	} else if st.refactor() != refactorOK {
		return warmNo // singular basis matrix (or budget expired mid-rebuild)
	}
	fit := warmPrimal
	for i, j := range st.basis {
		x := st.xB[i]
		if x < -warmFeasTol || x > st.effUpper(j)+warmFeasTol {
			fit = warmRepair // out of bounds: candidate for dual repair
			continue
		}
		if x < 0 {
			st.xB[i] = 0
		}
	}
	return fit
}
