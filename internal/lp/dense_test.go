package lp

import (
	"math"
	"time"
)

// newDenseFactor is the Options.kernel constructor of the dense oracle.
func newDenseFactor() factor { return &denseFactor{} }

// withDense returns opts switched to the dense reference kernel (dense) or
// left on the production sparse LU kernel.
func withDense(opts Options, dense bool) Options {
	opts.kernel = nil
	if dense {
		opts.kernel = newDenseFactor
	}
	return opts
}

// kernelFor returns a fresh basis kernel: the dense oracle or the
// production sparse LU.
func kernelFor(dense bool) factor {
	if dense {
		return newDenseFactor()
	}
	return &luFactor{}
}

// denseFactor is the original kernel: B⁻¹ held as a dense m×m matrix,
// updated in product form row by row (O(m²) per pivot) and rebuilt by
// Gauss-Jordan elimination with partial pivoting (O(m³)). It is retained as
// the slow-but-simple reference the differential tests compare the sparse
// LU kernel against; solves select it with withDense.
type denseFactor struct {
	m    int
	binv [][]float64 // row i = row i of B⁻¹
	nPiv int         // product-form pivots since reset/refactorize
}

func (f *denseFactor) age() int { return f.nPiv }
func (f *denseFactor) wantRefactor() bool {
	return false // the dense inverse has no eta file to outgrow
}

func (f *denseFactor) reset(m int) {
	if f.m != m || f.binv == nil {
		f.m = m
		f.binv = make([][]float64, m)
		for i := range f.binv {
			f.binv[i] = make([]float64, m)
		}
	}
	for i, row := range f.binv {
		for k := range row {
			row[k] = 0
		}
		row[i] = 1
	}
	f.nPiv = 0
}

// refactorize rebuilds B⁻¹ from the basis columns by Gauss-Jordan
// elimination with partial pivoting on [B | I].
func (f *denseFactor) refactorize(std *standard, basis []int, deadline time.Time) refactorOutcome {
	m := std.m
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, 2*m)
		a[i][m+i] = 1
	}
	for pos, j := range basis {
		for _, e := range std.cols[j] {
			a[e.row][pos] = e.val
		}
	}
	for col := 0; col < m; col++ {
		if col%32 == 0 && expired(deadline) {
			return refactorTimeout
		}
		// Partial pivot.
		p := col
		best := math.Abs(a[col][col])
		for i := col + 1; i < m; i++ {
			if v := math.Abs(a[i][col]); v > best {
				best, p = v, i
			}
		}
		if best < 1e-12 {
			return refactorSingular
		}
		a[col], a[p] = a[p], a[col]
		inv := 1 / a[col][col]
		for k := col; k < 2*m; k++ {
			a[col][k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			fct := a[i][col]
			if fct == 0 {
				continue
			}
			for k := col; k < 2*m; k++ {
				a[i][k] -= fct * a[col][k]
			}
		}
	}
	if f.m != m || f.binv == nil {
		f.reset(m)
	}
	for i := 0; i < m; i++ {
		copy(f.binv[i], a[i][m:])
	}
	f.nPiv = 0
	return refactorOK
}

func (f *denseFactor) ftranCol(col []entry, out []float64) {
	m := f.m
	for i := range out {
		out[i] = 0
	}
	for _, e := range col {
		v := e.val
		for i := 0; i < m; i++ {
			out[i] += f.binv[i][e.row] * v
		}
	}
}

func (f *denseFactor) ftranDense(x, out []float64) {
	m := f.m
	for i := 0; i < m; i++ {
		v := 0.0
		row := f.binv[i]
		for k := 0; k < m; k++ {
			v += row[k] * x[k]
		}
		out[i] = v
	}
}

func (f *denseFactor) btran(x, out []float64) {
	m := f.m
	for k := range out {
		out[k] = 0
	}
	for i := 0; i < m; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := f.binv[i]
		for k := 0; k < m; k++ {
			out[k] += xi * row[k]
		}
	}
}

func (f *denseFactor) btranUnit(r int, out []float64) {
	copy(out, f.binv[r])
}

func (f *denseFactor) update(r int, w []float64) {
	m := f.m
	piv := w[r]
	br := f.binv[r][:m]
	inv := 1 / piv
	for k := range br {
		br[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		fct := w[i]
		if fct == 0 {
			continue
		}
		// axpy: binv[i] -= fct * br. Unrolled 4-wide; this is the hottest
		// loop of the dense kernel (every pivot touches m rows).
		bi := f.binv[i][:m]
		k := 0
		for ; k+4 <= m; k += 4 {
			bi[k] -= fct * br[k]
			bi[k+1] -= fct * br[k+1]
			bi[k+2] -= fct * br[k+2]
			bi[k+3] -= fct * br[k+3]
		}
		for ; k < m; k++ {
			bi[k] -= fct * br[k]
		}
	}
	f.nPiv++
}

// The dense kernel has no sparsity to exploit: the Nz variants compute the
// full dense result and report its nonzero pattern (prev needs no clearing —
// the dense solves overwrite every entry).
func (f *denseFactor) ftranColNz(col []entry, out []float64, prev []int32) []int32 {
	f.ftranCol(col, out)
	nz := prev[:0]
	for i, v := range out[:f.m] {
		if v != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

func (f *denseFactor) btranUnitNz(r int, out []float64, prev []int32) []int32 {
	f.btranUnit(r, out)
	nz := prev[:0]
	for i, v := range out[:f.m] {
		if v != 0 {
			nz = append(nz, int32(i))
		}
	}
	return nz
}

func (f *denseFactor) updateNz(r int, w []float64, wnz []int32) {
	f.update(r, w)
}

func (f *denseFactor) clone() factor {
	c := &denseFactor{m: f.m, nPiv: f.nPiv}
	c.binv = make([][]float64, f.m)
	for i, row := range f.binv {
		c.binv[i] = append([]float64(nil), row...)
	}
	return c
}
