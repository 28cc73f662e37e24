package lp

import (
	"math"
	"time"
)

// luFactor is the sparse kernel: the basis is held as a sparse LU
// factorization with Markowitz-style pivot ordering. Pivots applied since
// the last factorization are absorbed by one of two update schemes:
//
//   - Small models (m < nzVectorMinRows) keep the product-form eta file:
//     update() appends an eta vector, FTRAN applies the file last in order
//     and BTRAN first in reverse. The float stream of these models is
//     pinned by the golden-trace suite, so this path never changes.
//   - At hyper-sparse scale the kernel switches to Forrest–Tomlin updates
//     (ftMode): each pivot rewrites the U factor in place — the entering
//     column's spike v = U·w̃ replaces U's column at the leaving step, the
//     step moves to the end of a *logical* pivot order, and the leaving
//     step's old row is eliminated against the rows below it, appending
//     row-elimination multipliers (ftOps) that FTRAN applies to the
//     right-hand side after L and BTRAN applies transposed in reverse.
//     FTRAN/BTRAN stay pure L/U triangular solves with no eta-file replay,
//     so per-pivot solve cost tracks the (slowly growing) factor fill
//     rather than the pivot count since the last refactorization.
//
// Representation. Factorization of B (rows = constraint rows, columns =
// basis positions) by right-looking Gaussian elimination choosing pivot
// (i,j) to minimize the Markowitz cost (r_i−1)(c_j−1) subject to threshold
// stability |a_ij| ≥ tau·max|column j|:
//
//   - lops: the elimination multipliers in application order; applying them
//     to a right-hand side is the L⁻¹ pass (row space, no permutation
//     needed because each op names original row indices).
//   - urows/udiag + permRow/permPos: the rows that became pivot rows, i.e.
//     U in elimination order; entries are indexed by elimination step so
//     back-substitution (FTRAN) and the transposed forward solve (BTRAN)
//     are direct slice walks. In ftMode the *iteration* order is the
//     logical order (ordNext/ordPrev), which starts equal to step order
//     and diverges as updates move steps to the end; the triangular
//     invariant ord[row] < ord[col] holds for every off-diagonal entry.
//   - etas: product-form updates E_1…E_k appended by update() when ftMode
//     is off; B = B₀E₁…E_k so FTRAN applies them last in order and BTRAN
//     first in reverse. Empty in ftMode.
//
// All iteration orders are slice-deterministic: two solves of the same
// model pivot identically (warm-start determinism tests rely on this).
type luFactor struct {
	m       int
	lops    []lop   // L⁻¹ as elimination ops, in application order
	ur      [][]lue // U row per elimination step k: entries at steps > k
	ud      []float64
	permRow []int32 // step k -> original constraint row
	permPos []int32 // step k -> basis position

	etas    []eta
	etaNnz  int
	baseNnz int  // nnz(L)+nnz(U) at factorization, anchors the growth policy
	drift   bool // an ill-conditioned update pivot was absorbed

	// Forrest–Tomlin update state (ftMode only; see the type comment).
	// Update-added U entries never grow the arena-carved static rows:
	// they live in per-row overflow chains (xhead heads a linked list
	// through the xpool slab), so a pivot's structural writes are pool
	// appends and in-place unlinks — amortized-zero allocations. ucols is
	// the exact dynamic transpose (rows holding a U entry per column),
	// maintained eagerly on every update so the dependency-ordered
	// hyper-sparse worklists stay correct as the structure mutates; it
	// replaces the static ucPtr/ucIdx CSR, which is not built in ftMode.
	ftMode  bool
	ftOps   []ftOp  // row-elimination ops in application (append) order
	ftNnz   int     // update fill: spike entries + op multipliers absorbed
	nupd    int     // updates since refactorize (the age in ftMode)
	ord     []int64 // step -> logical order key, strictly increasing along the order
	ordNext []int32 // step -> successor in logical order (-1 at tail)
	ordPrev []int32 // step -> predecessor in logical order (-1 at head)
	ordHead int32
	ordTail int32
	nextOrd int64
	xhead   []int32   // step -> first xpool index of its overflow entries (-1 none)
	xpool   []lux     // overflow entry slab, recycled at refactorize
	ucols   [][]int32 // column step -> rows holding a U entry there (exact)

	// Transposed factorization structure for rhs-sparsity-adaptive solves.
	// ucPtr/ucIdx is a CSR map from elimination step k to the earlier steps
	// whose U rows reference z[k] (FTRAN's back-substitution dependents);
	// lrPtr/lrIdx maps each constraint row r to the L-op indices that read
	// out[r] (BTRAN's transposed-pass dependents). Both are stable between
	// refactorize/reset calls and shared by clones (the `shared` flag below
	// keeps a clone's view immutable), like the factorization itself.
	ucPtr, ucIdx []int32
	lrPtr, lrIdx []int32

	// Permutation inverses and the row→op map for the hyper-sparse solves
	// (ftranColNz/btranUnitNz): posStep is the inverse of permPos (basis
	// position → elimination step), stepOfRow the inverse of permRow, and
	// rowOp[r] the index of the elimination op whose pivot row is r (-1 when
	// row r generated no multipliers). Stable between refactorize/reset
	// calls, shared by clones under the `shared` flag.
	posStep   []int32
	stepOfRow []int32
	rowOp     []int32

	xwork []float64 // row-space scratch
	zwork []float64 // elimination-order scratch
	umark []bool    // FTRAN U-solve reachability marks (self-clearing)
	lmark []bool    // BTRAN L-op reachability marks (cleared per solve)

	// Forrest–Tomlin update scratch (ftMode only). ftb holds the scattered
	// step-space image of the tableau column while the spike is computed,
	// ftw the row-spike working values during elimination; both are kept
	// all-zero between calls. ftmark tags worklist membership and ftheap /
	// ftlist are the ord-keyed worklist and its companion lists.
	ftb, ftw []float64
	ftmark   []bool
	ftheap   []int64
	ftlist   []int32
	ftvals   []float64

	// Spike stash: the step-space image F(a) captured by the last hyper-
	// sparse FTRAN, which is exactly the spike column the next ftUpdate
	// needs. stashPtr identifies the output buffer the FTRAN filled; an
	// update whose w is that same buffer reuses the stash and skips the
	// U·w̃ recomputation. Any update or refactorization invalidates it.
	stashK   []int32
	stashV   []float64
	stashPtr *float64

	// Hyper-sparse solve scratch. sxw/szw are kept all-zero between calls
	// (each call clears exactly what it touched); the marks likewise. omark
	// and smark self-clear as the worklist heaps drain; pmark is cleared
	// with the eta-pass nonzero list; posMark/rmark persist between calls as
	// "currently in the caller's nonzero list" and are cleared when the next
	// call zeroes the previous output.
	sxw, szw       []float64
	smark, pmark   []bool
	posMark, rmark []bool
	omark          []bool
	heapA, heapB   []int32
	lstA, lstB     []int32

	// mkz holds the refactorization working set (active matrix, Markowitz
	// count buckets). It is reused across refactorizations — on paper-scale
	// models the active-matrix slices are the bulk of a refactorization's
	// allocations — and never shared with clones (the factorization output
	// slices are the immutable product; the scratch is not).
	mkz *markowitzScratch

	// shared marks the factorization output slices (lops/ur/ud/perms/
	// transposes and the arenas backing them) as visible to a clone. It is
	// set on BOTH sides of every clone() call; while set, refactorize and
	// reset allocate fresh outputs instead of recycling the previous ones,
	// and the eta arena is abandoned rather than rewound. The first
	// refactorize after a clone therefore pays one full allocation round and
	// clears the flag; steady-state solve loops (hundreds of
	// refactorizations per Paper-scale cold solve) recycle everything.
	shared bool

	// Arenas backing the per-step/per-pivot small slices, recycled across
	// refactorizations when not shared. lueArena backs ur's step rows,
	// opArena backs the lops multiplier lists, etaArena backs the eta-file
	// nonzero lists (append-carved with a capped three-index expression, so
	// a mid-carve growth leaves earlier, already-published slices on the old
	// backing array — write-once, never revisited).
	lueArena []lue
	opArena  []entry
	etaArena []entry
}

// markowitzScratch is the reusable working set of refactorize. Everything
// here is dead between refactorizations; only slice capacity is retained.
type markowitzScratch struct {
	rowNz    [][]ment  // active matrix rows (by constraint row)
	colRows  [][]int32 // per position: rows that (may) hold a nonzero
	colCount []int
	rowCount []int
	rowDone  []bool
	colDone  []bool
	seen     []int
	inWs     []bool
	posList  []int32

	// Count buckets for the Markowitz candidate search: bucket c is a
	// binary min-heap (by column position) of the active columns with
	// exactly c live entries. heapKey[j] names the bucket holding column
	// j's single valid entry (-1 when done); entries left behind in other
	// buckets by count changes are stale and discarded lazily on pop.
	// valid[c] counts live entries so bucket scans skip empties, and
	// minBucket lower-bounds the lowest non-empty bucket. Together they
	// turn the per-step candidate search from a full O(m) column scan
	// into a few heap operations — the difference between O(m²) and
	// near-O(nnz) refactorizations on paper-scale staircase models.
	heaps     [][]int32
	heapKey   []int32
	valid     []int
	minBucket int
	popped    []int32

	// Singleton queues for the staircase peeling pass (large models only).
	// colQ collects columns whose live count drops to 1 (setColCount feeds
	// it); rowQ collects rows whose live count drops to 1. Entries go stale
	// when counts move on — consumers re-check before use.
	colQ []int32
	rowQ []int32

	// Intermediate U build (position-indexed rows, remapped to steps at the
	// end of refactorize) and the transpose fill cursor. Dead between
	// refactorizations — unlike the factorization outputs these are never
	// shared with clones, so they recycle unconditionally.
	urPos  [][]ment
	uArena []ment
	fill   []int32
}

// ensure sizes every scratch slice for an m-row factorization and resets
// the per-refactorization state, retaining capacity wherever possible.
func (s *markowitzScratch) ensure(m int) {
	if cap(s.rowNz) < m {
		s.rowNz = make([][]ment, m)
		s.colRows = make([][]int32, m)
		s.colCount = make([]int, m)
		s.rowCount = make([]int, m)
		s.rowDone = make([]bool, m)
		s.colDone = make([]bool, m)
		s.seen = make([]int, m)
		s.inWs = make([]bool, m)
		s.heaps = make([][]int32, m+1)
		s.heapKey = make([]int32, m)
		s.valid = make([]int, m+1)
		s.urPos = make([][]ment, m)
		s.fill = make([]int32, m)
	}
	s.rowNz = s.rowNz[:m]
	s.colRows = s.colRows[:m]
	s.colCount = s.colCount[:m]
	s.rowCount = s.rowCount[:m]
	s.rowDone = s.rowDone[:m]
	s.colDone = s.colDone[:m]
	s.seen = s.seen[:m]
	s.inWs = s.inWs[:m]
	s.heaps = s.heaps[:m+1]
	s.heapKey = s.heapKey[:m]
	s.valid = s.valid[:m+1]
	s.urPos = s.urPos[:m]
	s.fill = s.fill[:m]
	for i := 0; i < m; i++ {
		s.rowNz[i] = s.rowNz[i][:0]
		s.colRows[i] = s.colRows[i][:0]
		s.rowDone[i] = false
		s.colDone[i] = false
		s.seen[i] = 0
		s.inWs[i] = false
		s.heapKey[i] = -1
	}
	for c := 0; c <= m; c++ {
		s.heaps[c] = s.heaps[c][:0]
		s.valid[c] = 0
	}
	s.minBucket = 0
	s.colQ = s.colQ[:0]
	s.rowQ = s.rowQ[:0]
}

// heapPush adds column j to bucket c (binary min-heap by position).
func (s *markowitzScratch) heapPush(c int, j int32) {
	h := append(s.heaps[c], j)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heaps[c] = h
}

// heapPop removes and returns the smallest column in bucket c.
func (s *markowitzScratch) heapPop(c int) int32 {
	h := s.heaps[c]
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	s.heaps[c] = h
	return top
}

// setColCount records column j's live-entry count changing to c, moving its
// valid bucket entry. Calls on finished columns are ignored.
func (s *markowitzScratch) setColCount(j int32, c int) {
	s.colCount[j] = c
	if s.colDone[j] {
		return
	}
	if c == 1 {
		s.colQ = append(s.colQ, j)
	}
	if old := s.heapKey[j]; old >= 0 {
		s.valid[old]--
	}
	s.heapKey[j] = int32(c)
	s.valid[c]++
	s.heapPush(c, j)
	if c < s.minBucket {
		s.minBucket = c
	}
}

// retireCol marks column j finished, invalidating its bucket entry.
func (s *markowitzScratch) retireCol(j int32) {
	s.colDone[j] = true
	if old := s.heapKey[j]; old >= 0 {
		s.valid[old]--
		s.heapKey[j] = -1
	}
}

// candidates fills cand with the (up to) markowitzCandidates active columns
// lowest in (count, position) lexicographic order — exactly the set the
// original full scan selected — and reports how many were found. A false
// second result means an active column has no live entries left (no fill
// can ever reach it), i.e. the basis is structurally singular.
func (s *markowitzScratch) candidates(cand *[markowitzCandidates]int32) (int, bool) {
	if s.valid[0] > 0 {
		return 0, false
	}
	nc := 0
	for c := s.minBucket; c < len(s.valid) && nc < markowitzCandidates; c++ {
		if s.valid[c] == 0 {
			if nc == 0 {
				s.minBucket = c + 1
			}
			continue
		}
		s.popped = s.popped[:0]
		h := s.heaps[c]
		for len(h) > 0 && nc < markowitzCandidates {
			j := s.heapPop(c)
			h = s.heaps[c]
			if s.heapKey[j] != int32(c) || s.colDone[j] {
				continue // stale: dropped for good
			}
			// A count oscillation (c → c' → c) leaves a second, stale
			// entry for j in this bucket that the heapKey test cannot
			// tell from the live one; valid[c] counts it once, so drop
			// repeats here (nc is at most 4, the scan is free).
			dup := false
			for _, p := range s.popped {
				if p == j {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			cand[nc] = j
			nc++
			s.popped = append(s.popped, j)
		}
		for _, j := range s.popped {
			s.heapPush(c, j)
		}
	}
	return nc, true
}

// lue is one off-diagonal U entry: k is the elimination step of the column
// it belongs to (always greater than the owning row's step).
type lue struct {
	k   int32
	val float64
}

// lop is one elimination step's multipliers: x[nz.row] -= nz.val * x[prow].
type lop struct {
	prow int32
	nz   []entry
}

// eta is one product-form update: the basis column at position r was
// replaced by a column with tableau form w (nz holds w's off-pivot
// nonzeros by position, piv = w[r]).
type eta struct {
	r   int32
	piv float64
	nz  []entry // entry.row is a basis position here
}

// ftOp is one Forrest–Tomlin row-elimination multiplier, in step space:
// FTRAN applies z[s] -= val·z[j] to the right-hand side after the L pass,
// BTRAN applies the transpose (z[j] -= val·z[s]) in reverse order.
type ftOp struct {
	s, j int32
	val  float64
}

// lux is one overflow U entry added by a Forrest–Tomlin update: k is the
// column step (same convention as lue), next chains the owning row's
// overflow entries through the pool (-1 ends the chain).
type lux struct {
	k    int32
	next int32
	val  float64
}

const (
	// markowitzTau is the threshold-pivoting stability factor: a pivot
	// must be at least this fraction of its column's largest magnitude.
	markowitzTau = 0.1
	// markowitzCandidates bounds the pivot search to the few lowest-count
	// columns; a full scan only runs when none of them yields a stable
	// pivot.
	markowitzCandidates = 4
	// luDropTol: elimination results below this magnitude are treated as
	// exact cancellation and dropped from the active matrix.
	luDropTol = 1e-12
	// luAbsPivotMin: no usable pivot above this magnitude in any column
	// means the basis is numerically singular.
	luAbsPivotMin = 1e-11
	// etaDropTol: tableau-column entries below this magnitude are noise
	// (the ratio test already ignores anything under 1e-9) and excluded
	// from stored etas.
	etaDropTol = 1e-13
	// etaDriftTol: an eta pivot smaller than this fraction of its
	// column's largest entry marks the representation drift-suspect,
	// forcing a refactorization before the next pivot.
	etaDriftTol = 1e-8
	// etaGrowthLimit caps the eta file at this multiple of the base
	// factorization's nonzeros (plus a 4m allowance) before a
	// refactorization is requested — past that point applying the eta
	// file costs more than refactoring.
	etaGrowthLimit = 4
	// ftGrowthLimit is the Forrest–Tomlin analogue: updates absorb their
	// fill into the factor itself, so the budget is measured fill (spike
	// entries plus row-elimination multipliers) against the base
	// factorization, and it is deliberately tighter than the eta limit —
	// FT fill is paid on *every* subsequent solve, an eta only on replay.
	// This measured-growth trigger, not a fixed pivot cadence, is what
	// paces refactorization in ftMode (see wantRefactor).
	ftGrowthLimit = 1
)

// minPush32/minPop32 and maxPush32/maxPop32 are the binary-heap worklists of
// the hyper-sparse triangular solves. The heap order is what lets a solve
// process only the reachable ops/steps while still visiting them in exactly
// the dense pass's direction (ascending or descending), which the
// factorization's dependency structure requires.
func minPush32(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func minPop32(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top, h
}

func maxPush32(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func maxPop32(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] > h[l] {
			l = r
		}
		if h[i] >= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top, h
}

// minPush64/minPop64 and maxPush64/maxPop64 are the ord-keyed worklist
// heaps of the Forrest–Tomlin solve paths. After FT updates the dependency
// order of U's steps is the *logical* order, not the step index order, so
// worklist entries carry the packed key ord[k]<<32|k — heap order on the
// key is heap order on ord (keys are unique: ord is injective).
func minPush64(h []int64, v int64) []int64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func minPop64(h []int64) (int64, []int64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top, h
}

func maxPush64(h []int64, v int64) []int64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func maxPop64(h []int64) (int64, []int64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] > h[l] {
			l = r
		}
		if h[i] >= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top, h
}

// ftKey packs step k with its logical order for the worklist heaps.
func (f *luFactor) ftKey(k int32) int64 { return f.ord[k]<<32 | int64(k) }

// nzCutoff is the worklist size beyond which a hyper-sparse stage stops
// paying heap log-factors and degrades to a linear mark-driven sweep (the
// marks are already in place; the sweep visits indices in the same direction
// the heap would have popped them, so the float stream is unchanged). n is
// the stage's index-space size (ops or steps).
func nzCutoff(n int) int {
	c := n / 16
	if c < 32 {
		c = 32
	}
	return c
}

// age counts the updates absorbed since the last refactorization: eta
// vectors in product-form mode, in-place U rewrites in ftMode.
func (f *luFactor) age() int { return len(f.etas) + f.nupd }

// wantRefactor requests a refactorization when the representation has
// drifted numerically or the update scheme's measured fill growth has
// passed its budget. In ftMode the budget is adaptive in the literal
// sense: it tracks the fill each pivot actually absorbed into U (spike
// entries plus elimination multipliers) rather than assuming a fixed
// per-pivot cost, so sparse pivot chains run long between
// refactorizations and dense ones refactor early.
func (f *luFactor) wantRefactor() bool {
	if f.drift {
		return true
	}
	if f.ftMode {
		return f.ftNnz > ftGrowthLimit*f.baseNnz+4*f.m
	}
	return f.etaNnz > etaGrowthLimit*f.baseNnz+4*f.m
}

func (f *luFactor) ensureScratch() {
	if len(f.xwork) != f.m {
		f.xwork = make([]float64, f.m)
		f.zwork = make([]float64, f.m)
		f.umark = make([]bool, f.m)
	}
}

// ensureNzScratch sizes the hyper-sparse solve working set. sxw/szw come
// back from make all-zero, which establishes the kept-clean invariant.
func (f *luFactor) ensureNzScratch() {
	if len(f.sxw) != f.m {
		f.sxw = make([]float64, f.m)
		f.szw = make([]float64, f.m)
		f.smark = make([]bool, f.m)
		f.pmark = make([]bool, f.m)
		f.posMark = make([]bool, f.m)
		f.rmark = make([]bool, f.m)
	}
	if len(f.omark) < len(f.lops) {
		f.omark = make([]bool, len(f.lops))
	}
}

// ensureFtScratch sizes the Forrest–Tomlin update working set. ftb/ftw
// come back from make all-zero, establishing the kept-clean invariant.
func (f *luFactor) ensureFtScratch() {
	if len(f.ftb) != f.m {
		f.ftb = make([]float64, f.m)
		f.ftw = make([]float64, f.m)
		f.ftmark = make([]bool, f.m)
	}
}

// ftReset (re)initializes the Forrest–Tomlin bookkeeping for a fresh
// factorization of m steps: logical order equal to step order, no ops, no
// overflow entries. ucols is left to the caller (refactorize builds it
// from U; reset leaves it empty — the identity has no off-diagonals).
func (f *luFactor) ftReset(m int) {
	f.ftMode = true
	f.ftOps = f.ftOps[:0]
	f.ftNnz = 0
	f.nupd = 0
	f.stashPtr = nil
	f.xpool = f.xpool[:0]
	if len(f.ord) != m {
		f.ord = make([]int64, m)
		f.ordNext = make([]int32, m)
		f.ordPrev = make([]int32, m)
		f.xhead = make([]int32, m)
	}
	for k := 0; k < m; k++ {
		f.ord[k] = int64(k)
		f.ordNext[k] = int32(k + 1)
		f.ordPrev[k] = int32(k - 1)
		f.xhead[k] = -1
	}
	if m > 0 {
		f.ordNext[m-1] = -1
		f.ordHead, f.ordTail = 0, int32(m-1)
	} else {
		f.ordHead, f.ordTail = -1, -1
	}
	f.nextOrd = int64(m)
	if len(f.ucols) != m {
		f.ucols = make([][]int32, m)
	}
	for k := 0; k < m; k++ {
		f.ucols[k] = f.ucols[k][:0]
	}
	f.ensureFtScratch()
}

// reset installs the identity factorization (the cold-start basis is the
// identity by construction). Fresh slices are allocated so a reset can
// never write through arrays shared with a cloned snapshot.
func (f *luFactor) reset(m int) {
	f.m = m
	if f.shared || len(f.ud) != m || f.ur == nil {
		// First use, a size change, or a clone still views the current
		// arrays: allocate fresh so a reset can never write through arrays
		// shared with a cloned snapshot.
		f.lops = nil
		f.opArena = nil
		f.lueArena = nil
		f.ur = make([][]lue, m)
		f.ud = make([]float64, m)
		f.permRow = make([]int32, m)
		f.permPos = make([]int32, m)
		f.posStep = make([]int32, m)
		f.stepOfRow = make([]int32, m)
		f.rowOp = make([]int32, m)
		f.ucPtr = make([]int32, m+1)
		f.ucIdx = nil
		f.lrPtr = make([]int32, m+1)
		f.lrIdx = nil
		f.lmark = nil
		f.etas = nil
		f.etaArena = nil
		f.shared = false
	} else {
		// Recycle in place: rewrite every identity-state entry and rewind
		// the arenas (no clone can see them — that is what !shared means).
		f.lops = f.lops[:0]
		f.opArena = f.opArena[:0]
		f.lueArena = f.lueArena[:0]
		for k := 0; k < m; k++ {
			f.ur[k] = nil
		}
		for i := range f.ucPtr {
			f.ucPtr[i] = 0
		}
		for i := range f.lrPtr {
			f.lrPtr[i] = 0
		}
		f.ucIdx = f.ucIdx[:0]
		f.lrIdx = f.lrIdx[:0]
		f.etas = f.etas[:0]
		f.etaArena = f.etaArena[:0]
	}
	for k := 0; k < m; k++ {
		f.ud[k] = 1
		f.permRow[k] = int32(k)
		f.permPos[k] = int32(k)
		f.posStep[k] = int32(k)
		f.stepOfRow[k] = int32(k)
		f.rowOp[k] = -1
	}
	f.etaNnz = 0
	f.baseNnz = m
	f.drift = false
	if m >= nzVectorMinRows {
		f.ftReset(m)
	} else {
		f.ftMode = false
		f.nupd = 0
	}
	f.ensureScratch()
}

// ment is an active-matrix entry during factorization, indexed by basis
// position.
type ment struct {
	pos int32
	val float64
}

// rowGet finds the entry of row at position pos (rows are short slices, so
// a linear scan beats any index structure).
func rowGet(row []ment, pos int32) (float64, bool) {
	for _, e := range row {
		if e.pos == pos {
			return e.val, true
		}
	}
	return 0, false
}

// refactorize factors the basis columns from scratch, rebuilding every
// factorization output slice — in place when no clone shares them, freshly
// otherwise (clones taken earlier keep their own view) — and clearing the
// eta file; the working set comes from the reusable Markowitz scratch. The
// deadline is checked every 64 elimination steps so a large factorization
// respects Options.TimeBudget.
func (f *luFactor) refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome {
	m := std.m
	f.m = m
	f.ensureScratch()
	if f.mkz == nil {
		f.mkz = &markowitzScratch{}
	}
	s := f.mkz
	s.ensure(m)

	// Active matrix: rows by original constraint row, a per-position list
	// of rows that (may) hold a nonzero there, and exact per-row/column
	// nonzero counts feeding the Markowitz cost via the count buckets.
	rowNz := s.rowNz
	colRows := s.colRows
	colCount := s.colCount
	rowCount := s.rowCount
	for p, j := range basis {
		// Pre-size the column list (its exact initial count is the basis
		// column's length) with headroom for elimination fill, so the build
		// and the fill appends stay off the allocator on the first call and
		// reuse retained capacity afterwards.
		if c := len(std.cols[j]); cap(colRows[p]) < c {
			colRows[p] = make([]int32, 0, c+c/2+8)
		}
		col := std.cols[j]
		for _, e := range col {
			rowNz[e.row] = append(rowNz[e.row], ment{pos: int32(p), val: e.val})
			colRows[p] = append(colRows[p], int32(e.row))
		}
	}
	for p := range basis {
		s.setColCount(int32(p), len(colRows[p]))
	}
	// Staircase peeling is gated like the hyper-sparse solves: it changes
	// the pivot order, and small models' float streams are pinned by the
	// golden-trace suite.
	peel := m >= nzVectorMinRows
	for i := range rowNz {
		rowCount[i] = len(rowNz[i])
		if peel && rowCount[i] == 1 {
			s.rowQ = append(s.rowQ, int32(i))
		}
	}

	rowDone := s.rowDone
	colDone := s.colDone
	// Factorization outputs: recycled in place from the previous
	// refactorization unless a clone shares them, in which case one fresh
	// allocation round replaces the whole set and the clone keeps the old
	// arrays untouched. Recycling scribbles over the live representation as
	// the elimination proceeds, which is fine: every failure exit
	// (timeout/singular) leads the solver to reset() or abandon the
	// factorization, never to keep solving with it. The per-step L
	// multipliers are carved out of one append-grown arena — slices carved
	// before a growth keep the old backing array, which is never written
	// again, so publishing stays safe.
	fresh := f.shared || len(f.ud) != m || f.ur == nil
	var (
		lops    []lop
		opArena []entry
		ur      [][]lue
		ud      []float64
		permRow []int32
		permPos []int32
	)
	if fresh {
		lops = make([]lop, 0, m/4+1)
		opArena = make([]entry, 0, 4*m)
		ur = make([][]lue, m) // built as position-indexed, remapped at the end
		ud = make([]float64, m)
		permRow = make([]int32, m)
		permPos = make([]int32, m)
	} else {
		lops = f.lops[:0]
		opArena = f.opArena[:0]
		ur = f.ur
		ud = f.ud
		permRow = f.permRow
		permPos = f.permPos
	}
	urPos := s.urPos
	uArena := s.uArena[:0]

	// Stamped row-visited marks dedupe colRows (a row is re-appended when
	// a dropped entry fills back in).
	seen := s.seen
	stamp := 0

	ws := f.xwork // dense row-combination workspace, by position
	inWs := s.inWs

	for k := 0; k < m; k++ {
		if k&63 == 0 && expired(deadline) {
			return refactorTimeout
		}

		// Staircase peeling: singleton pivots need no Markowitz search.
		// A singleton column's pivot generates no multipliers at all (no
		// other live row holds the column); a singleton row's pivot
		// eliminates its column from the other rows *exactly* — the pivot
		// row has nothing else to add, so there is no fill and the active
		// matrix only shrinks. On the staircase bases this solver sees,
		// peeling erases the bulk of the matrix before any candidate
		// scan runs. Row-singleton pivots skip the relative-stability
		// threshold (only the absolute floor applies): the elimination
		// itself is exact, so an out-of-threshold multiplier costs solve
		// accuracy far less than it would in a fill-producing pivot.
		pr, pc, piv := int32(-1), int32(-1), 0.0
		bestCost := math.MaxInt64 - 1
		if peel {
			for len(s.colQ) > 0 {
				j := s.colQ[len(s.colQ)-1]
				s.colQ = s.colQ[:len(s.colQ)-1]
				if s.colDone[j] || s.colCount[j] != 1 {
					continue
				}
				rr := int32(-1)
				v := 0.0
				for _, r := range colRows[j] {
					if rowDone[r] {
						continue
					}
					if vv, ok := rowGet(rowNz[r], j); ok {
						rr, v = r, vv
						break
					}
				}
				if rr < 0 || math.Abs(v) < luAbsPivotMin {
					continue // stale or numerically unusable: leave to the search
				}
				pr, pc, piv = rr, j, v
				break
			}
			if pr < 0 {
				for len(s.rowQ) > 0 {
					r := s.rowQ[len(s.rowQ)-1]
					s.rowQ = s.rowQ[:len(s.rowQ)-1]
					if rowDone[r] || rowCount[r] != 1 {
						continue
					}
					e := rowNz[r][0]
					if math.Abs(e.val) < luAbsPivotMin {
						continue
					}
					pr, pc, piv = r, e.pos, e.val
					break
				}
			}
		}
		if pr < 0 {
			scanCol := func(j int32) bool {
				// Two passes over the column's live entries: max magnitude
				// for the stability threshold, then cost minimization.
				stamp++
				colMax := 0.0
				for _, r := range colRows[j] {
					if rowDone[r] || seen[r] == stamp {
						continue
					}
					seen[r] = stamp
					if v, ok := rowGet(rowNz[r], j); ok {
						if a := math.Abs(v); a > colMax {
							colMax = a
						}
					}
				}
				if colMax < luAbsPivotMin {
					return false
				}
				thresh := markowitzTau * colMax
				found := false
				stamp++
				for _, r := range colRows[j] {
					if rowDone[r] || seen[r] == stamp {
						continue
					}
					seen[r] = stamp
					v, ok := rowGet(rowNz[r], j)
					if !ok || math.Abs(v) < thresh || math.Abs(v) < luAbsPivotMin {
						continue
					}
					cost := (rowCount[r] - 1) * (colCount[j] - 1)
					if cost < bestCost || (cost == bestCost && (j < pc || (j == pc && r < pr))) {
						bestCost, pr, pc, piv = cost, r, j, v
						found = true
					}
				}
				return found
			}

			// The candidate buckets yield the same lowest-(count, position)
			// columns the original full scan selected, in the same order, so
			// the pivot sequence — and with it every downstream float — is
			// unchanged.
			var cand [markowitzCandidates]int32
			nc, ok := s.candidates(&cand)
			if !ok {
				return refactorSingular // a live column no fill can ever reach
			}
			for i := 0; i < nc; i++ {
				scanCol(cand[i])
				if bestCost == 0 {
					break // a singleton row or column cannot be beaten
				}
			}
			if pr < 0 {
				// None of the low-count candidates had a stable pivot; fall
				// back to scanning every active column before declaring the
				// basis singular.
				for j := 0; j < m && bestCost > 0; j++ {
					if !colDone[j] {
						scanCol(int32(j))
					}
				}
				if pr < 0 {
					return refactorSingular
				}
			}
		}

		// Eliminate pivot (pr, pc).
		permRow[k], permPos[k] = pr, pc
		rowDone[pr] = true
		s.retireCol(pc)
		pivRow := rowNz[pr]
		uStart := len(uArena)
		for _, e := range pivRow {
			if !colDone[e.pos] {
				s.setColCount(e.pos, colCount[e.pos]-1)
			}
			if e.pos != pc {
				uArena = append(uArena, e)
			}
		}
		urPos[k] = uArena[uStart:]
		ud[k] = piv

		opStart := len(opArena)
		stamp++
		for _, r32 := range colRows[pc] {
			r := int(r32)
			if rowDone[r] || seen[r] == stamp {
				continue
			}
			seen[r] = stamp
			arpc, ok := rowGet(rowNz[r], pc)
			if !ok {
				continue
			}
			mult := arpc / piv
			opArena = append(opArena, entry{row: r, val: mult})
			// Row combination: row r ← row r − mult·(pivot row), with the
			// pivot column eliminated exactly. Scatter, saxpy, gather.
			old := rowNz[r]
			posList := s.posList[:0]
			for _, e := range old {
				if e.pos == pc {
					continue
				}
				ws[e.pos] = e.val
				inWs[e.pos] = true
				posList = append(posList, e.pos)
			}
			for _, e := range urPos[k] {
				if inWs[e.pos] {
					ws[e.pos] -= mult * e.val
				} else {
					ws[e.pos] = -mult * e.val
					inWs[e.pos] = true
					posList = append(posList, e.pos)
					colRows[e.pos] = append(colRows[e.pos], r32)
					s.setColCount(e.pos, colCount[e.pos]+1)
				}
			}
			newRow := old[:0]
			for _, pos := range posList {
				v := ws[pos]
				inWs[pos] = false
				if math.Abs(v) <= luDropTol {
					if !colDone[pos] {
						// Cancelled to (numerical) zero.
						s.setColCount(pos, colCount[pos]-1)
					}
					continue
				}
				newRow = append(newRow, ment{pos: pos, val: v})
			}
			s.posList = posList[:0]
			rowNz[r] = newRow
			rowCount[r] = len(newRow)
			if peel && len(newRow) == 1 {
				s.rowQ = append(s.rowQ, r32)
			}
		}
		if len(opArena) > opStart {
			lops = append(lops, lop{prow: pr, nz: opArena[opStart:]})
		}
		rowNz[pr] = rowNz[pr][:0]
	}

	// Remap U entries from basis positions to elimination steps: every
	// off-diagonal entry belongs to a column eliminated later, so FTRAN's
	// descending back-substitution and BTRAN's ascending transposed solve
	// become direct walks.
	var posOfPos []int32
	if fresh {
		posOfPos = make([]int32, m)
	} else {
		posOfPos = f.posStep
	}
	for k, p := range permPos {
		posOfPos[p] = int32(k)
	}
	lueA := f.lueArena[:0]
	if fresh {
		lueA = make([]lue, 0, len(uArena))
	}
	nnz := m
	for k, src := range urPos {
		uStart := len(lueA)
		for _, e := range src {
			lueA = append(lueA, lue{k: posOfPos[e.pos], val: e.val})
		}
		ur[k] = lueA[uStart:len(lueA):len(lueA)]
		nnz += len(src)
	}
	f.lueArena = lueA
	for _, op := range lops {
		nnz += len(op.nz)
	}

	// Transposes for the sparsity-adaptive solves. Recycled like the
	// factorization they mirror (clones share both, so `fresh` governs
	// them too); the fill cursor is pure scratch. In ftMode the static
	// CSR column map is replaced by the exact dynamic lists the updates
	// maintain (ucols, built below), so it is not built at all.
	ft := m >= nzVectorMinRows
	var ucPtr []int32
	var ucIdx []int32
	if !ft {
		if fresh {
			ucPtr = make([]int32, m+1)
		} else {
			ucPtr = f.ucPtr
			for i := range ucPtr {
				ucPtr[i] = 0
			}
		}
		for _, u := range ur {
			for _, e := range u {
				ucPtr[e.k+1]++
			}
		}
		for k := 0; k < m; k++ {
			ucPtr[k+1] += ucPtr[k]
		}
		ucIdx = f.ucIdx
		if need := int(ucPtr[m]); fresh || cap(ucIdx) < need {
			ucIdx = make([]int32, need)
		} else {
			ucIdx = ucIdx[:need]
		}
		ucFill := s.fill
		copy(ucFill, ucPtr[:m])
		for k, u := range ur {
			for _, e := range u {
				ucIdx[ucFill[e.k]] = int32(k)
				ucFill[e.k]++
			}
		}
	}
	var lrPtr []int32
	if fresh {
		lrPtr = make([]int32, m+1)
	} else {
		lrPtr = f.lrPtr
		for i := range lrPtr {
			lrPtr[i] = 0
		}
	}
	for li := range lops {
		for _, nz := range lops[li].nz {
			lrPtr[nz.row+1]++
		}
	}
	for r := 0; r < m; r++ {
		lrPtr[r+1] += lrPtr[r]
	}
	lrIdx := f.lrIdx
	if need := int(lrPtr[m]); fresh || cap(lrIdx) < need {
		lrIdx = make([]int32, need)
	} else {
		lrIdx = lrIdx[:need]
	}
	lrFill := s.fill[:0]
	lrFill = append(lrFill, lrPtr[:m]...)
	for li := range lops {
		for _, nz := range lops[li].nz {
			lrIdx[lrFill[nz.row]] = int32(li)
			lrFill[nz.row]++
		}
	}

	var stepOfRow, rowOp []int32
	if fresh {
		stepOfRow = make([]int32, m)
		rowOp = make([]int32, m)
	} else {
		stepOfRow = f.stepOfRow
		rowOp = f.rowOp
	}
	for k, r := range permRow {
		stepOfRow[r] = int32(k)
	}
	for r := range rowOp {
		rowOp[r] = -1
	}
	for li := range lops {
		rowOp[lops[li].prow] = int32(li)
	}

	f.lops = lops
	f.opArena = opArena
	f.ur = ur
	f.ud = ud
	f.permRow = permRow
	f.permPos = permPos
	f.posStep = posOfPos
	f.stepOfRow = stepOfRow
	f.rowOp = rowOp
	if !ft {
		f.ucPtr, f.ucIdx = ucPtr, ucIdx
	}
	f.lrPtr, f.lrIdx = lrPtr, lrIdx
	s.uArena = uArena[:0]
	if len(f.lmark) < len(lops) {
		f.lmark = make([]bool, len(lops))
	}
	if len(f.omark) < len(lops) {
		f.omark = make([]bool, len(lops))
	}
	// The eta headers are private (clone copies them into its own array),
	// but their nonzero lists live in the arena: rewind it only when no
	// clone can still be reading the old contents.
	f.etas = f.etas[:0]
	if f.shared {
		f.etaArena = nil
	} else {
		f.etaArena = f.etaArena[:0]
	}
	f.shared = false
	f.etaNnz = 0
	f.baseNnz = nnz
	f.drift = false
	if ft {
		f.ftReset(m)
		// Count column occupancy first (ftw is all-zero between calls and
		// free here, so it doubles as the counting scratch), then pre-size
		// each list with a little headroom for later spike rebuilds; the
		// build itself then stays off the allocator, and retained capacity
		// covers subsequent refactorizations.
		cnt := f.ftw
		for k := range ur {
			for _, e := range ur[k] {
				cnt[e.k]++
			}
		}
		for k := 0; k < m; k++ {
			c := int(cnt[k])
			cnt[k] = 0
			if c > 0 && cap(f.ucols[k]) < c {
				f.ucols[k] = make([]int32, 0, c+8)
			}
		}
		for k := range ur {
			for _, e := range ur[k] {
				f.ucols[e.k] = append(f.ucols[e.k], int32(k))
			}
		}
	} else {
		f.ftMode = false
		f.nupd = 0
	}
	// The workspace doubled as the scatter buffer; leave it zeroed.
	for i := range ws {
		ws[i] = 0
	}
	return refactorOK
}

// solveForward is the FTRAN core: x (row space, consumed) through L⁻¹, U
// back-substitution, permutation to position space, then the eta file.
//
// The U back-substitution is rhs-sparsity-adaptive: step k's result can be
// nonzero only when its own rhs entry is, or a later step it references
// produced a nonzero (tracked through the transposed structure in
// ucPtr/ucIdx). Skipped steps are exact zeros — the arithmetic for computed
// steps runs the original inner loop in the original order, so the float
// stream is unchanged. On simplex workloads the rhs is an entering column
// with a handful of nonzeros and the reachable set is tiny; this is what
// turns each pivot from O(m + nnz(U)) into O(m) flag work plus O(reached).
func (f *luFactor) solveForward(x, out []float64) {
	for li := range f.lops {
		op := &f.lops[li]
		pv := x[op.prow]
		if pv != 0 {
			for _, nz := range op.nz {
				x[nz.row] -= nz.val * pv
			}
		}
	}
	if f.ftMode {
		// FT row ops transform the step-space rhs in application order;
		// since z₀[k] ≡ x[permRow[k]] they run on x through the gather.
		for i := range f.ftOps {
			op := &f.ftOps[i]
			pv := x[f.permRow[op.j]]
			if pv != 0 {
				x[f.permRow[op.s]] -= op.val * pv
			}
		}
		// Back-substitution walks the *logical* order descending; every
		// entry's column is logically later, so its z is already final.
		z := f.zwork
		mk := f.umark
		for k := f.ordTail; k >= 0; k = f.ordPrev[k] {
			v := x[f.permRow[k]]
			if !mk[k] && v == 0 {
				z[k] = 0
				continue
			}
			mk[k] = false
			for _, e := range f.ur[k] {
				v -= e.val * z[e.k]
			}
			for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
				v -= f.xpool[xi].val * z[f.xpool[xi].k]
			}
			t := v / f.ud[k]
			z[k] = t
			if t != 0 {
				for _, c := range f.ucols[k] {
					mk[c] = true
				}
			}
		}
		for k := 0; k < f.m; k++ {
			out[f.permPos[k]] = z[k]
		}
		return
	}
	z := f.zwork
	mk := f.umark
	for k := f.m - 1; k >= 0; k-- {
		v := x[f.permRow[k]]
		if !mk[k] && v == 0 {
			z[k] = 0
			continue
		}
		mk[k] = false
		for _, e := range f.ur[k] {
			v -= e.val * z[e.k]
		}
		t := v / f.ud[k]
		z[k] = t
		if t != 0 {
			for _, c := range f.ucIdx[f.ucPtr[k]:f.ucPtr[k+1]] {
				mk[c] = true
			}
		}
	}
	for k := 0; k < f.m; k++ {
		out[f.permPos[k]] = z[k]
	}
	// B = B₀E₁…E_k ⇒ B⁻¹ = E_k⁻¹…E₁⁻¹B₀⁻¹: etas apply last, in order.
	for ei := range f.etas {
		e := &f.etas[ei]
		t := out[e.r] / e.piv
		out[e.r] = t
		if t != 0 {
			for _, nz := range e.nz {
				out[nz.row] -= nz.val * t
			}
		}
	}
}

func (f *luFactor) ftranCol(col []entry, out []float64) {
	x := f.xwork
	for i := range x {
		x[i] = 0
	}
	for _, e := range col {
		x[e.row] = e.val
	}
	f.solveForward(x, out)
}

func (f *luFactor) ftranDense(x, out []float64) {
	copy(f.xwork, x)
	f.solveForward(f.xwork, out)
}

// solveBackward is the BTRAN core: p (position space, consumed) through the
// transposed eta file in reverse, Uᵀ forward solve, permutation to row
// space, then the transposed elimination ops in reverse.
//
// The transposed elimination pass is rhs-sparsity-adaptive: an op only
// changes out[op.prow] when one of the rows it reads is nonzero, so ops are
// marked through the reader lists in lrPtr/lrIdx as nonzeros appear and
// unmarked ops are skipped. A skipped op leaves its row's value bit-exactly
// as the dense pass would (subtracting only exact zeros); marked ops run
// the original loop in the original order, so the float stream is
// unchanged.
func (f *luFactor) solveBackward(p, out []float64) {
	for ei := len(f.etas) - 1; ei >= 0; ei-- {
		e := &f.etas[ei]
		s := p[e.r]
		for _, nz := range e.nz {
			s -= nz.val * p[nz.row]
		}
		p[e.r] = s / e.piv
	}
	z := f.zwork
	for k := 0; k < f.m; k++ {
		z[k] = p[f.permPos[k]]
	}
	if f.ftMode {
		// Uᵀ forward solve walks the logical order ascending (scatter
		// targets are logically later), then the transposed FT ops apply
		// in reverse append order.
		for k := f.ordHead; k >= 0; k = f.ordNext[k] {
			t := z[k] / f.ud[k]
			z[k] = t
			if t != 0 {
				for _, e := range f.ur[k] {
					z[e.k] -= e.val * t
				}
				for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
					z[f.xpool[xi].k] -= f.xpool[xi].val * t
				}
			}
		}
		for i := len(f.ftOps) - 1; i >= 0; i-- {
			op := &f.ftOps[i]
			if v := z[op.s]; v != 0 {
				z[op.j] -= op.val * v
			}
		}
	} else {
		for k := 0; k < f.m; k++ {
			t := z[k] / f.ud[k]
			z[k] = t
			if t != 0 {
				for _, e := range f.ur[k] {
					z[e.k] -= e.val * t
				}
			}
		}
	}
	mk := f.lmark
	for k := 0; k < f.m; k++ {
		v := z[k]
		r := f.permRow[k]
		out[r] = v
		if v != 0 {
			for _, li := range f.lrIdx[f.lrPtr[r]:f.lrPtr[r+1]] {
				mk[li] = true
			}
		}
	}
	for li := len(f.lops) - 1; li >= 0; li-- {
		op := &f.lops[li]
		if !mk[li] {
			continue
		}
		s := out[op.prow]
		for _, nz := range op.nz {
			s -= nz.val * out[nz.row]
		}
		out[op.prow] = s
		if s != 0 {
			pr := int(op.prow)
			for _, lj := range f.lrIdx[f.lrPtr[pr]:f.lrPtr[pr+1]] {
				mk[lj] = true
			}
		}
	}
	for li := range mk {
		mk[li] = false
	}
}

func (f *luFactor) btran(x, out []float64) {
	copy(f.xwork, x)
	f.solveBackward(f.xwork, out)
}

func (f *luFactor) btranUnit(r int, out []float64) {
	p := f.xwork
	for i := range p {
		p[i] = 0
	}
	p[r] = 1
	f.solveBackward(p, out)
}

// ftDelete removes row k's U entry in column s, whichever store holds it
// (static row or overflow chain). A miss is a no-op: exact-cancellation
// drops can leave a column list pointing at an entry that never existed.
func (f *luFactor) ftDelete(k, s int32) {
	row := f.ur[k]
	for i := range row {
		if row[i].k == s {
			row[i] = row[len(row)-1]
			f.ur[k] = row[:len(row)-1]
			return
		}
	}
	prev := int32(-1)
	for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
		if f.xpool[xi].k == s {
			if prev < 0 {
				f.xhead[k] = f.xpool[xi].next
			} else {
				f.xpool[prev].next = f.xpool[xi].next
			}
			return
		}
		prev = xi
	}
}

// ucolDrop removes row k from column j's row list (exact maintenance: the
// hyper-sparse worklists rely on ucols never naming a row whose logical
// order is later than the column's, which a stale entry for a moved row
// would violate).
func (f *luFactor) ucolDrop(j, k int32) {
	l := f.ucols[j]
	for i := range l {
		if l[i] == k {
			l[i] = l[len(l)-1]
			f.ucols[j] = l[:len(l)-1]
			return
		}
	}
}

// ftUpdate absorbs one pivot into the factorization in place (Forrest–
// Tomlin): the basis column at position r has been replaced by a column
// with tableau form w = B⁻¹a (nonzero positions wnz; nil means scan w).
//
// With the representation B⁻¹ = P ∘ U⁻¹ ∘ F (F = the appended ftOps after
// the row gather and L⁻¹ pass), replacing column r of B turns U's column
// at step s = posStep[r] into the spike v = F(a) = U·w̃, where w̃ is w
// gathered to step space — computed from w directly so a clone can absorb
// a pivot without having run the FTRAN itself. Step s then moves to the
// end of the logical order: every spike entry (k,s) becomes upper
// triangular for free, while the old row-s entries fall below the
// diagonal and are eliminated against the rows owning their columns in
// ascending logical order. Each elimination emits one ftOp (F_new = E∘F);
// fill lands either at a later column of the working row (handled when
// popped) or at column s, where it accumulates into the new diagonal.
// Row s ends a singleton; no other row or column of U moves.
func (f *luFactor) ftUpdate(r int, w []float64, wnz []int32) {
	f.ensureFtScratch()
	s := f.posStep[r]

	mark := f.ftmark
	cand := f.ftlist[:0]
	vals := f.ftvals[:0]
	ns := 0
	vdiag, maxAbs := 0.0, 0.0
	if f.stashPtr != nil && len(w) > 0 && &w[0] == f.stashPtr {
		// The FTRAN that produced w already computed F(a) on the way to
		// the U back-substitution and stashed it — that IS the spike.
		spikeK := cand
		for i, k := range f.stashK {
			v := f.stashV[i]
			if k == s {
				vdiag = v
				continue
			}
			if a := math.Abs(v); a > etaDropTol {
				if a > maxAbs {
					maxAbs = a
				}
				spikeK = append(spikeK, k)
				vals = append(vals, v)
			}
		}
		cand = spikeK
		ns = len(cand)
	} else {
		// Spike v = U·w̃: gather w, then evaluate the rows that can see a
		// nonzero — those whose own rhs entry is set or that hold a U entry
		// in a nonzero column (ucols is exact, so this set is complete).
		ftb := f.ftb
		addCand := func(p int) {
			v := w[p]
			if v == 0 {
				return
			}
			k := f.posStep[p]
			ftb[k] = v
			if !mark[k] {
				mark[k] = true
				cand = append(cand, k)
			}
			for _, kk := range f.ucols[k] {
				if !mark[kk] {
					mark[kk] = true
					cand = append(cand, kk)
				}
			}
		}
		if wnz != nil {
			for _, p := range wnz {
				addCand(int(p))
			}
		} else {
			for p := 0; p < f.m; p++ {
				addCand(p)
			}
		}
		spikeK := cand
		for _, k := range cand {
			mark[k] = false
			v := f.ud[k] * ftb[k]
			for _, e := range f.ur[k] {
				v += e.val * ftb[e.k]
			}
			for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
				v += f.xpool[xi].val * ftb[f.xpool[xi].k]
			}
			if k == s {
				vdiag = v
				continue
			}
			if a := math.Abs(v); a > etaDropTol {
				if a > maxAbs {
					maxAbs = a
				}
				spikeK[ns] = k
				vals = append(vals, v)
				ns++
			}
		}
		if wnz != nil {
			for _, p := range wnz {
				ftb[f.posStep[p]] = 0
			}
		} else {
			for p := 0; p < f.m; p++ {
				if w[p] != 0 {
					ftb[f.posStep[p]] = 0
				}
			}
		}
	}
	spikeK := cand[:ns]
	if a := math.Abs(vdiag); a > maxAbs {
		maxAbs = a
	}
	f.stashPtr = nil // the factor is about to change; the stash is spent

	// Drop the old column s from its rows, and capture-and-remove the old
	// row s: its entries seed the row-spike elimination worklist (ordered
	// by the columns' logical order), and their column lists drop row s
	// eagerly so ucols stays exact once s moves to the end.
	for _, k := range f.ucols[s] {
		f.ftDelete(k, s)
	}
	f.ucols[s] = f.ucols[s][:0]
	ftw := f.ftw
	eh := f.ftheap[:0]
	for _, e := range f.ur[s] {
		ftw[e.k] = e.val
		mark[e.k] = true
		eh = minPush64(eh, f.ftKey(e.k))
		f.ucolDrop(e.k, s)
	}
	for xi := f.xhead[s]; xi >= 0; xi = f.xpool[xi].next {
		e := f.xpool[xi]
		ftw[e.k] = e.val
		mark[e.k] = true
		eh = minPush64(eh, f.ftKey(e.k))
		f.ucolDrop(e.k, s)
	}
	f.ur[s] = f.ur[s][:0]
	f.xhead[s] = -1

	// Insert the spike column as overflow entries and rebuild ucols[s].
	for i, k := range spikeK {
		f.xpool = append(f.xpool, lux{k: s, next: f.xhead[k], val: vals[i]})
		f.xhead[k] = int32(len(f.xpool) - 1)
		f.ucols[s] = append(f.ucols[s], k)
	}

	// Move step s to the end of the logical order.
	if f.ordTail != s {
		p, n := f.ordPrev[s], f.ordNext[s]
		if p >= 0 {
			f.ordNext[p] = n
		} else {
			f.ordHead = n
		}
		if n >= 0 {
			f.ordPrev[n] = p
		}
		f.ordPrev[s] = f.ordTail
		f.ordNext[f.ordTail] = s
		f.ordNext[s] = -1
		f.ordTail = s
	}
	f.ord[s] = f.nextOrd
	f.nextOrd++

	// Eliminate the row spike in ascending logical order, one ftOp per
	// surviving column. Entries at column s (the spike, inserted above)
	// accumulate into the new diagonal.
	d := vdiag
	opStart := len(f.ftOps)
	for len(eh) > 0 {
		var key int64
		key, eh = minPop64(eh)
		j := int32(key & 0xffffffff)
		mark[j] = false
		rv := ftw[j]
		ftw[j] = 0
		if math.Abs(rv) <= luDropTol {
			continue
		}
		mult := rv / f.ud[j]
		f.ftOps = append(f.ftOps, ftOp{s: s, j: j, val: mult})
		for _, e := range f.ur[j] {
			if e.k == s {
				d -= mult * e.val
			} else if mark[e.k] {
				ftw[e.k] -= mult * e.val
			} else {
				mark[e.k] = true
				ftw[e.k] = -mult * e.val
				eh = minPush64(eh, f.ftKey(e.k))
			}
		}
		for xi := f.xhead[j]; xi >= 0; xi = f.xpool[xi].next {
			e := f.xpool[xi]
			if e.k == s {
				d -= mult * e.val
			} else if mark[e.k] {
				ftw[e.k] -= mult * e.val
			} else {
				mark[e.k] = true
				ftw[e.k] = -mult * e.val
				eh = minPush64(eh, f.ftKey(e.k))
			}
		}
	}

	if a := math.Abs(d); a < luAbsPivotMin || a < etaDriftTol*maxAbs {
		f.drift = true // ill-conditioned update: refactor before next pivot
		if d == 0 {
			d = luAbsPivotMin // keep solves finite until the forced refactorization
		}
	}
	f.ud[s] = d
	f.nupd++
	f.ftNnz += ns + (len(f.ftOps) - opStart)
	f.ftlist = cand[:0]
	f.ftvals = vals[:0]
	f.ftheap = eh[:0]
}

func (f *luFactor) update(r int, w []float64) {
	if f.ftMode {
		f.ftUpdate(r, w, nil)
		return
	}
	piv := w[r]
	maxAbs := math.Abs(piv)
	start := len(f.etaArena)
	for i, v := range w {
		if i == r {
			continue
		}
		a := math.Abs(v)
		if a <= etaDropTol {
			continue
		}
		if a > maxAbs {
			maxAbs = a
		}
		f.etaArena = append(f.etaArena, entry{row: i, val: v})
	}
	nz := f.etaArena[start:len(f.etaArena):len(f.etaArena)]
	f.etas = append(f.etas, eta{r: int32(r), piv: piv, nz: nz})
	f.etaNnz += len(nz) + 1
	if math.Abs(piv) < etaDriftTol*maxAbs {
		f.drift = true // ill-conditioned update: refactor before next pivot
	}
}

// ftranColNz is the hyper-sparse FTRAN: out = B⁻¹·a for a sparse column a,
// touching only the entries reachable from a's nonzeros through the
// factorization's dependency graph. prev is the nonzero list the previous
// call returned for this output buffer; its entries are zeroed first, which
// with the all-zero initial state keeps out exactly-zero everywhere off the
// returned list. The returned list is deduplicated (posMark) and unsorted.
//
// The three stages mirror solveForward. The L pass processes elimination ops
// in ascending index order off a min-heap worklist — an op's scatter targets
// are pivot rows of strictly later ops, so every dependency pops first and
// the computed values match the dense pass's float stream on the reachable
// set. The U back-substitution runs descending off a max-heap (step k's
// dependents through ucIdx are strictly earlier steps). The eta pass cannot
// be sparsified (every eta must be inspected) but skips the zero-input
// writes the dense pass makes; skipped entries differ from the dense result
// at most in the sign of a floating-point zero.
func (f *luFactor) ftranColNz(col []entry, out []float64, prev []int32) []int32 {
	f.ensureNzScratch()
	for _, p := range prev {
		out[p] = 0
		f.posMark[p] = false
	}
	nz := prev[:0]

	// L pass over the reachable ops.
	x := f.sxw
	xt := f.lstA[:0]
	oh := f.heapA[:0]
	for _, e := range col {
		x[e.row] = e.val
		xt = append(xt, int32(e.row))
		if li := f.rowOp[e.row]; li >= 0 && !f.omark[li] {
			f.omark[li] = true
			oh = minPush32(oh, li)
		}
	}
	opCut := nzCutoff(len(f.lops))
	for len(oh) > 0 {
		if len(oh) > opCut {
			// Dense-degrade: sweep ascending from the smallest marked op;
			// scatter targets are always later ops, so marks set mid-sweep
			// are reached by the same sweep.
			start := int(oh[0])
			oh = oh[:0]
			for li := start; li < len(f.lops); li++ {
				if !f.omark[li] {
					continue
				}
				f.omark[li] = false
				op := &f.lops[li]
				pv := x[op.prow]
				if pv == 0 {
					continue
				}
				for _, nzE := range op.nz {
					if x[nzE.row] == 0 {
						xt = append(xt, int32(nzE.row))
					}
					x[nzE.row] -= nzE.val * pv
					if lj := f.rowOp[nzE.row]; lj >= 0 {
						f.omark[lj] = true
					}
				}
			}
			break
		}
		var li int32
		li, oh = minPop32(oh)
		f.omark[li] = false
		op := &f.lops[li]
		pv := x[op.prow]
		if pv == 0 {
			continue
		}
		for _, nzE := range op.nz {
			if x[nzE.row] == 0 {
				xt = append(xt, int32(nzE.row))
			}
			x[nzE.row] -= nzE.val * pv
			if lj := f.rowOp[nzE.row]; lj >= 0 && !f.omark[lj] {
				f.omark[lj] = true
				oh = minPush32(oh, lj)
			}
		}
	}

	if f.ftMode {
		// FT row ops on the step-space rhs (z₀[k] ≡ x[permRow[k]]), in
		// application order; the op file is short (it resets at every
		// refactorization), so a linear zero-skipping walk beats any
		// worklist here.
		for i := range f.ftOps {
			op := &f.ftOps[i]
			pv := x[f.permRow[op.j]]
			if pv != 0 {
				rr := f.permRow[op.s]
				if x[rr] == 0 {
					xt = append(xt, rr)
				}
				x[rr] -= op.val * pv
			}
		}
	}

	// U back-substitution, descending over the reachable steps.
	z := f.szw
	zt := f.lstB[:0]
	if f.ftMode {
		// Descending in *logical* order via the ord-keyed heap; the
		// degrade sweep follows the order links the same way. The seeding
		// pass doubles as the spike stash: x here is F(a) in row space,
		// exactly the spike column an ftUpdate absorbing this column needs.
		fh := f.ftheap[:0]
		sk, sv := f.stashK[:0], f.stashV[:0]
		for _, r := range xt {
			if x[r] == 0 {
				continue
			}
			if k := f.stepOfRow[r]; !f.smark[k] {
				f.smark[k] = true
				fh = maxPush64(fh, f.ftKey(k))
				sk = append(sk, k)
				sv = append(sv, x[r])
			}
		}
		f.stashK, f.stashV = sk, sv
		f.stashPtr = &out[0]
		ftCut := nzCutoff(f.m)
		for len(fh) > 0 {
			if len(fh) > ftCut {
				// Dense-degrade: substitute every step from the largest
				// marked one down the logical order. Dependencies always
				// have later ord, so they are solved before they are read;
				// mark propagation is pure overhead at this density, so the
				// sweep just clears marks as it passes.
				start := int32(fh[0] & 0xffffffff)
				fh = fh[:0]
				for k := start; k >= 0; k = f.ordPrev[k] {
					f.smark[k] = false
					v := x[f.permRow[k]]
					for _, e := range f.ur[k] {
						v -= e.val * z[e.k]
					}
					for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
						v -= f.xpool[xi].val * z[f.xpool[xi].k]
					}
					if v == 0 {
						continue
					}
					z[k] = v / f.ud[k]
					zt = append(zt, k)
				}
				break
			}
			var key int64
			key, fh = maxPop64(fh)
			k := int32(key & 0xffffffff)
			f.smark[k] = false
			v := x[f.permRow[k]]
			for _, e := range f.ur[k] {
				v -= e.val * z[e.k]
			}
			for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
				v -= f.xpool[xi].val * z[f.xpool[xi].k]
			}
			t := v / f.ud[k]
			z[k] = t
			zt = append(zt, k)
			if t != 0 {
				for _, c := range f.ucols[k] {
					if !f.smark[c] {
						f.smark[c] = true
						fh = maxPush64(fh, f.ftKey(c))
					}
				}
			}
		}
		f.ftheap = fh[:0]
		for _, r := range xt {
			x[r] = 0
		}
		// Permute to position space; there is no eta file in ftMode.
		for _, k := range zt {
			p := f.permPos[k]
			out[p] = z[k]
			z[k] = 0
			f.posMark[p] = true
			nz = append(nz, p)
		}
		f.lstA, f.lstB = xt[:0], zt[:0]
		f.heapA = oh
		return nz
	}
	sh := f.heapB[:0]
	for _, r := range xt {
		if x[r] == 0 {
			continue
		}
		if k := f.stepOfRow[r]; !f.smark[k] {
			f.smark[k] = true
			sh = maxPush32(sh, k)
		}
	}
	stepCut := nzCutoff(f.m)
	for len(sh) > 0 {
		if len(sh) > stepCut {
			// Dense-degrade: sweep descending from the largest marked step;
			// back-substitution dependents are always earlier steps.
			start := int(sh[0])
			sh = sh[:0]
			for k := start; k >= 0; k-- {
				if !f.smark[k] {
					continue
				}
				f.smark[k] = false
				v := x[f.permRow[k]]
				for _, e := range f.ur[k] {
					v -= e.val * z[e.k]
				}
				t := v / f.ud[k]
				z[k] = t
				zt = append(zt, int32(k))
				if t != 0 {
					for _, c := range f.ucIdx[f.ucPtr[k]:f.ucPtr[k+1]] {
						f.smark[c] = true
					}
				}
			}
			break
		}
		var k int32
		k, sh = maxPop32(sh)
		f.smark[k] = false
		v := x[f.permRow[k]]
		for _, e := range f.ur[k] {
			v -= e.val * z[e.k]
		}
		t := v / f.ud[k]
		z[k] = t
		zt = append(zt, k)
		if t != 0 {
			for _, c := range f.ucIdx[f.ucPtr[k]:f.ucPtr[k+1]] {
				if !f.smark[c] {
					f.smark[c] = true
					sh = maxPush32(sh, c)
				}
			}
		}
	}
	for _, r := range xt {
		x[r] = 0
	}

	// Permute to position space, then the eta file in order.
	for _, k := range zt {
		p := f.permPos[k]
		out[p] = z[k]
		z[k] = 0
		f.posMark[p] = true
		nz = append(nz, p)
	}
	for ei := range f.etas {
		e := &f.etas[ei]
		v := out[e.r]
		if v == 0 {
			continue
		}
		t := v / e.piv
		out[e.r] = t
		if t == 0 {
			continue
		}
		for _, nzE := range e.nz {
			if !f.posMark[nzE.row] {
				f.posMark[nzE.row] = true
				nz = append(nz, int32(nzE.row))
			}
			out[nzE.row] -= nzE.val * t
		}
	}

	f.lstA, f.lstB = xt[:0], zt[:0]
	f.heapA, f.heapB = oh, sh
	return nz
}

// btranUnitNz is the hyper-sparse BTRAN of a unit vector: out = eᵣᵀB⁻¹, the
// tableau row the dual updates and dual ratio tests consume. Same contract
// as ftranColNz: prev is zeroed first, the returned row list is deduplicated
// (rmark) and unsorted, and everything off it is exactly zero.
//
// Mirrors solveBackward: the eta file applies in reverse (dense over etas,
// sparse in the vector), the Uᵀ forward solve runs ascending off a min-heap
// (step k scatters into strictly later steps), and the transposed L pass
// runs descending off a max-heap (the ops reading a pivot row have strictly
// smaller indices than the op that produced it).
func (f *luFactor) btranUnitNz(r int, out []float64, prev []int32) []int32 {
	f.ensureNzScratch()
	for _, p := range prev {
		out[p] = 0
		f.rmark[p] = false
	}
	nz := prev[:0]

	// Transposed eta pass, newest first.
	p := f.sxw
	p[r] = 1
	f.pmark[r] = true
	pnz := append(f.lstA[:0], int32(r))
	for ei := len(f.etas) - 1; ei >= 0; ei-- {
		e := &f.etas[ei]
		s := p[e.r]
		for _, nzE := range e.nz {
			s -= nzE.val * p[nzE.row]
		}
		if s == 0 && p[e.r] == 0 {
			continue
		}
		p[e.r] = s / e.piv
		if !f.pmark[e.r] {
			f.pmark[e.r] = true
			pnz = append(pnz, e.r)
		}
	}

	// Gather to elimination order and solve Uᵀ ascending.
	z := f.szw
	if f.ftMode {
		// Ascending in *logical* order via the ord-keyed heap; after the
		// solve, the transposed FT ops run in reverse append order.
		fh := f.ftheap[:0]
		for _, pos := range pnz {
			f.pmark[pos] = false
			v := p[pos]
			p[pos] = 0
			if v == 0 {
				continue
			}
			k := f.posStep[pos]
			f.smark[k] = true
			z[k] = v
			fh = minPush64(fh, f.ftKey(k))
		}
		ztf := f.lstB[:0]
		ftCut := nzCutoff(f.m)
		for len(fh) > 0 {
			if len(fh) > ftCut {
				start := int32(fh[0] & 0xffffffff)
				fh = fh[:0]
				for k := start; k >= 0; k = f.ordNext[k] {
					if !f.smark[k] {
						continue
					}
					f.smark[k] = false
					t := z[k] / f.ud[k]
					z[k] = t
					ztf = append(ztf, k)
					if t != 0 {
						for _, e := range f.ur[k] {
							f.smark[e.k] = true
							z[e.k] -= e.val * t
						}
						for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
							f.smark[f.xpool[xi].k] = true
							z[f.xpool[xi].k] -= f.xpool[xi].val * t
						}
					}
				}
				break
			}
			var key int64
			key, fh = minPop64(fh)
			k := int32(key & 0xffffffff)
			f.smark[k] = false
			t := z[k] / f.ud[k]
			z[k] = t
			ztf = append(ztf, k)
			if t != 0 {
				for _, e := range f.ur[k] {
					if !f.smark[e.k] {
						f.smark[e.k] = true
						fh = minPush64(fh, f.ftKey(e.k))
					}
					z[e.k] -= e.val * t
				}
				for xi := f.xhead[k]; xi >= 0; xi = f.xpool[xi].next {
					c := f.xpool[xi].k
					if !f.smark[c] {
						f.smark[c] = true
						fh = minPush64(fh, f.ftKey(c))
					}
					z[c] -= f.xpool[xi].val * t
				}
			}
		}
		f.ftheap = fh[:0]
		// Transposed FT ops, newest first. The touched-step list doubles
		// as the dedupe set (re-marked around the pass).
		if len(f.ftOps) > 0 {
			for _, k := range ztf {
				f.smark[k] = true
			}
			for i := len(f.ftOps) - 1; i >= 0; i-- {
				op := &f.ftOps[i]
				if v := z[op.s]; v != 0 {
					if !f.smark[op.j] {
						f.smark[op.j] = true
						ztf = append(ztf, op.j)
					}
					z[op.j] -= op.val * v
				}
			}
			for _, k := range ztf {
				f.smark[k] = false
			}
		}
		// Permute to row space and run the reachable transposed L ops.
		oh := f.heapA[:0]
		for _, k := range ztf {
			rr := f.permRow[k]
			v := z[k]
			z[k] = 0
			out[rr] = v
			f.rmark[rr] = true
			nz = append(nz, rr)
			if v != 0 {
				for _, li := range f.lrIdx[f.lrPtr[rr]:f.lrPtr[rr+1]] {
					if !f.omark[li] {
						f.omark[li] = true
						oh = maxPush32(oh, li)
					}
				}
			}
		}
		nz = f.btranLTranspose(out, nz, oh)
		f.lstA, f.lstB = pnz[:0], ztf[:0]
		return nz
	}
	sh := f.heapB[:0]
	for _, pos := range pnz {
		f.pmark[pos] = false
		v := p[pos]
		p[pos] = 0
		if v == 0 {
			continue
		}
		k := f.posStep[pos]
		f.smark[k] = true
		z[k] = v
		sh = minPush32(sh, k)
	}
	zt := f.lstB[:0]
	stepCut := nzCutoff(f.m)
	for len(sh) > 0 {
		if len(sh) > stepCut {
			// Dense-degrade: sweep ascending from the smallest marked step;
			// Uᵀ scatters only into later steps.
			start := int(sh[0])
			sh = sh[:0]
			for k := start; k < f.m; k++ {
				if !f.smark[k] {
					continue
				}
				f.smark[k] = false
				t := z[k] / f.ud[k]
				z[k] = t
				zt = append(zt, int32(k))
				if t != 0 {
					for _, e := range f.ur[k] {
						f.smark[e.k] = true
						z[e.k] -= e.val * t
					}
				}
			}
			break
		}
		var k int32
		k, sh = minPop32(sh)
		f.smark[k] = false
		t := z[k] / f.ud[k]
		z[k] = t
		zt = append(zt, k)
		if t != 0 {
			for _, e := range f.ur[k] {
				if !f.smark[e.k] {
					f.smark[e.k] = true
					sh = minPush32(sh, e.k)
				}
				z[e.k] -= e.val * t
			}
		}
	}

	// Permute to row space and run the reachable transposed L ops.
	oh := f.heapA[:0]
	for _, k := range zt {
		rr := f.permRow[k]
		v := z[k]
		z[k] = 0
		out[rr] = v
		f.rmark[rr] = true
		nz = append(nz, rr)
		if v != 0 {
			for _, li := range f.lrIdx[f.lrPtr[rr]:f.lrPtr[rr+1]] {
				if !f.omark[li] {
					f.omark[li] = true
					oh = maxPush32(oh, li)
				}
			}
		}
	}
	nz = f.btranLTranspose(out, nz, oh)
	f.lstA, f.lstB = pnz[:0], zt[:0]
	f.heapB = sh
	return nz
}

// btranLTranspose runs the reachable transposed L ops of a hyper-sparse
// BTRAN (shared by the eta and Forrest–Tomlin paths — the L factor is
// identical in both). oh is the seeded max-heap worklist; the grown nz
// list is returned and the heap buffer is retained on the factor.
func (f *luFactor) btranLTranspose(out []float64, nz []int32, oh []int32) []int32 {
	opCut := nzCutoff(len(f.lops))
	for len(oh) > 0 {
		if len(oh) > opCut {
			// Dense-degrade: sweep descending from the largest marked op;
			// the ops reading a pivot row are always earlier in the file.
			start := int(oh[0])
			oh = oh[:0]
			for li := start; li >= 0; li-- {
				if !f.omark[li] {
					continue
				}
				f.omark[li] = false
				op := &f.lops[li]
				s := out[op.prow]
				for _, nzE := range op.nz {
					s -= nzE.val * out[nzE.row]
				}
				pr := op.prow
				out[pr] = s
				if !f.rmark[pr] {
					f.rmark[pr] = true
					nz = append(nz, pr)
				}
				if s != 0 {
					for _, lj := range f.lrIdx[f.lrPtr[pr]:f.lrPtr[pr+1]] {
						f.omark[lj] = true
					}
				}
			}
			break
		}
		var li int32
		li, oh = maxPop32(oh)
		f.omark[li] = false
		op := &f.lops[li]
		s := out[op.prow]
		for _, nzE := range op.nz {
			s -= nzE.val * out[nzE.row]
		}
		pr := op.prow
		out[pr] = s
		if !f.rmark[pr] {
			f.rmark[pr] = true
			nz = append(nz, pr)
		}
		if s != 0 {
			for _, lj := range f.lrIdx[f.lrPtr[pr]:f.lrPtr[pr+1]] {
				if !f.omark[lj] {
					f.omark[lj] = true
					oh = maxPush32(oh, lj)
				}
			}
		}
	}
	f.heapA = oh
	return nz
}

// updateNz is update with the tableau column's nonzero list supplied, so
// building the eta costs O(nnz) instead of an O(m) scan. The eta inherits
// the list's order; eta entries only ever feed independent scatter writes
// and deterministic-order gather sums, so no particular order is required.
func (f *luFactor) updateNz(r int, w []float64, wnz []int32) {
	if f.ftMode {
		f.ftUpdate(r, w, wnz)
		return
	}
	piv := w[r]
	maxAbs := math.Abs(piv)
	start := len(f.etaArena)
	for _, i32 := range wnz {
		i := int(i32)
		if i == r {
			continue
		}
		v := w[i]
		a := math.Abs(v)
		if a <= etaDropTol {
			continue
		}
		if a > maxAbs {
			maxAbs = a
		}
		f.etaArena = append(f.etaArena, entry{row: i, val: v})
	}
	nz := f.etaArena[start:len(f.etaArena):len(f.etaArena)]
	f.etas = append(f.etas, eta{r: int32(r), piv: piv, nz: nz})
	f.etaNnz += len(nz) + 1
	if math.Abs(piv) < etaDriftTol*maxAbs {
		f.drift = true
	}
}

// clone deep-snapshots the representation. The factorization slices are
// shared — marking BOTH sides `shared` makes them immutable from here on:
// the next refactorize/reset on either side allocates fresh arrays instead
// of recycling these. The eta file gets a fresh header array because the
// live solver keeps appending to its own; the eta nonzero lists stay on the
// parent's arena, which the shared flag likewise protects from rewinding
// (appends past the current length never touch a carved slice — each is
// capped at its own end). Scratch buffers are never shared.
//
// In ftMode the update scheme mutates U in place, so the shared/immutable
// contract cannot cover it: the mutable set (diagonal, U rows, overflow
// chains, column lists, logical order, op file) is deep-copied instead,
// and both sides keep updating their own copy freely. The L factor, the
// permutations, and the row-transpose stay shared exactly as before.
func (f *luFactor) clone() factor {
	f.shared = true
	c := &luFactor{
		m:         f.m,
		shared:    true,
		lops:      f.lops,
		ur:        f.ur,
		ud:        f.ud,
		permRow:   f.permRow,
		permPos:   f.permPos,
		posStep:   f.posStep,
		stepOfRow: f.stepOfRow,
		rowOp:     f.rowOp,
		ucPtr:     f.ucPtr,
		ucIdx:     f.ucIdx,
		lrPtr:     f.lrPtr,
		lrIdx:     f.lrIdx,
		etas:      append([]eta(nil), f.etas...),
		etaNnz:    f.etaNnz,
		baseNnz:   f.baseNnz,
		drift:     f.drift,
		xwork:     make([]float64, f.m),
		zwork:     make([]float64, f.m),
		umark:     make([]bool, f.m),
		lmark:     make([]bool, len(f.lops)),
	}
	if f.ftMode {
		c.ftMode = true
		c.ud = append([]float64(nil), f.ud...)
		total := 0
		for _, row := range f.ur {
			total += len(row)
		}
		ur := make([][]lue, f.m)
		arena := make([]lue, 0, total)
		for k, row := range f.ur {
			start := len(arena)
			arena = append(arena, row...)
			ur[k] = arena[start:len(arena):len(arena)]
		}
		c.ur = ur
		c.xhead = append([]int32(nil), f.xhead...)
		c.xpool = append([]lux(nil), f.xpool...)
		total = 0
		for _, l := range f.ucols {
			total += len(l)
		}
		ucols := make([][]int32, f.m)
		ua := make([]int32, 0, total)
		for k, l := range f.ucols {
			start := len(ua)
			ua = append(ua, l...)
			ucols[k] = ua[start:len(ua):len(ua)]
		}
		c.ucols = ucols
		c.ftOps = append([]ftOp(nil), f.ftOps...)
		c.ftNnz = f.ftNnz
		c.nupd = f.nupd
		c.ord = append([]int64(nil), f.ord...)
		c.ordNext = append([]int32(nil), f.ordNext...)
		c.ordPrev = append([]int32(nil), f.ordPrev...)
		c.ordHead, c.ordTail, c.nextOrd = f.ordHead, f.ordTail, f.nextOrd
	}
	return c
}
