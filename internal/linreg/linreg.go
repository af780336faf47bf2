// Package linreg implements ordinary least-squares linear regression, the
// workhorse of Approx-MaMoRL (Section 3.3): the Teammate and Learning
// Modules are approximated by linear functions of hand-crafted features
// (Equations 9 and 11), fitted by minimizing squared error (Equations 10
// and 12).
//
// Fitting solves the normal equations (XᵀX + λI)w = Xᵀy by Gaussian
// elimination with partial pivoting. A small default ridge term λ keeps the
// system well-posed when features are collinear (several of the paper's
// indicator features frequently are, e.g. α and β can coincide on small
// grids).
//
// The gram accumulation is flat and chunked: rows are consumed in
// fixed-size chunks, each chunk sums into its own partial, and partials are
// reduced in chunk-index order. That order fixes every floating-point sum,
// and with it the fitted weights the golden pins and registry artifact IDs
// record.
package linreg

import (
	"errors"
	"fmt"
	"math"

	"github.com/routeplanning/mamorl/internal/tensor"
)

// Options configures Fit.
type Options struct {
	// Ridge is the L2 regularization strength λ. Negative is invalid; zero
	// selects DefaultRidge. Use math.SmallestNonzeroFloat64 to effectively
	// disable regularization.
	Ridge float64
	// FitIntercept adds a constant bias term to the model.
	FitIntercept bool
}

// DefaultRidge is the regularization used when Options.Ridge is zero.
const DefaultRidge = 1e-8

// fitChunkRows is the width of the chunks the gram is summed in; with the
// chunk-order reduction it fixes the fitted weights bit for bit.
const fitChunkRows = 256

// Model is a fitted linear model.
type Model struct {
	// Weights are the feature coefficients ω_l.
	Weights []float64
	// Intercept is the bias (0 unless FitIntercept was set).
	Intercept float64
}

// ErrBadData reports unusable training input.
var ErrBadData = errors.New("linreg: bad training data")

// Fit solves min_w Σ (y - Xw)² (+ λ‖w‖²) over a flat row-major design
// matrix X, one row per target in y.
func Fit(X *tensor.Matrix, y []float64, opts Options) (*Model, error) {
	if X == nil || X.Rows() == 0 || X.Rows() != len(y) {
		rows := 0
		if X != nil {
			rows = X.Rows()
		}
		return nil, fmt.Errorf("%w: %d rows, %d targets", ErrBadData, rows, len(y))
	}
	d := X.Cols()
	data := X.Data()
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite feature in row %d", ErrBadData, i/d)
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite target in row %d", ErrBadData, i)
		}
	}
	ridge := opts.Ridge
	switch {
	case ridge < 0:
		return nil, fmt.Errorf("%w: negative ridge %v", ErrBadData, ridge)
	case ridge == 0:
		ridge = DefaultRidge
	}

	cols := d
	if opts.FitIntercept {
		cols++
	}
	rows := X.Rows()
	nchunks := (rows + fitChunkRows - 1) / fitChunkRows
	// Per chunk: upper-triangle gram packed flat (cols*cols for simplicity)
	// plus the rhs vector.
	stride := cols*cols + cols
	partials := make([]float64, nchunks*stride)
	for c := 0; c < nchunks; c++ {
		part := partials[c*stride : (c+1)*stride]
		gram, rhs := part[:cols*cols], part[cols*cols:]
		lo := c * fitChunkRows
		hi := min(lo+fitChunkRows, rows)
		for r := lo; r < hi; r++ {
			row := data[r*d : (r+1)*d]
			yr := y[r]
			for i := 0; i < cols; i++ {
				fi := 1.0
				if i < d {
					fi = row[i]
				}
				rhs[i] += fi * yr
				gi := gram[i*cols:]
				for j := i; j < d; j++ {
					gi[j] += fi * row[j]
				}
				if cols > d {
					gi[d] += fi
				}
			}
		}
	}

	// Reduce in chunk-index order, then mirror the upper triangle and add
	// the ridge.
	gram := make([][]float64, cols)
	for i := range gram {
		gram[i] = make([]float64, cols)
	}
	rhs := make([]float64, cols)
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			g := 0.0
			for c := 0; c < nchunks; c++ {
				g += partials[c*stride+i*cols+j]
			}
			gram[i][j] = g
		}
		r := 0.0
		for c := 0; c < nchunks; c++ {
			r += partials[c*stride+cols*cols+i]
		}
		rhs[i] = r
	}
	for i := 0; i < cols; i++ {
		for j := 0; j < i; j++ {
			gram[i][j] = gram[j][i]
		}
		gram[i][i] += ridge
	}

	w, err := solve(gram, rhs)
	if err != nil {
		return nil, err
	}
	m := &Model{Weights: w[:d:d]}
	if opts.FitIntercept {
		m.Intercept = w[d]
	}
	return m, nil
}

// Predict evaluates the model on a feature vector.
func (m *Model) Predict(x []float64) float64 {
	if len(x) != len(m.Weights) {
		panic(fmt.Sprintf("linreg: predict with %d features on a %d-feature model", len(x), len(m.Weights)))
	}
	s := m.Intercept
	for i, w := range m.Weights {
		s += w * x[i]
	}
	return s
}

// MSE returns the mean squared error of the model over a dataset.
func (m *Model) MSE(X *tensor.Matrix, y []float64) float64 {
	if X == nil || X.Rows() == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < X.Rows(); i++ {
		d := m.Predict(X.Row(i)) - y[i]
		s += d * d
	}
	return s / float64(X.Rows())
}

// solve performs in-place Gaussian elimination with partial pivoting on the
// augmented system [A | b].
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in this column at or below the diagonal.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, errors.New("linreg: singular normal equations (increase ridge)")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}
