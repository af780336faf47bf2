// Package tensor provides the flat, row-major float64 matrix backing the
// training stack. A Matrix keeps every row in one backing array with a
// fixed stride, so sample collection grows a single slice, trainers iterate
// with zero indirection, and Row hands out a []float64 window without
// copying.
package tensor

import "fmt"

// Matrix is a dense row-major matrix over one flat backing slice. The zero
// value is unusable; construct with NewMatrix or FromSlice.
type Matrix struct {
	data []float64
	rows int
	cols int
}

// NewMatrix returns an empty matrix with the given row width.
func NewMatrix(cols int) *Matrix {
	if cols <= 0 {
		panic(fmt.Sprintf("tensor: %d columns", cols))
	}
	return &Matrix{cols: cols}
}

// FromSlice wraps an existing flat slice as a matrix view without copying.
// len(data) must be a multiple of cols. The matrix aliases data; callers
// must not AppendRow to a view over storage they do not own.
func FromSlice(data []float64, cols int) (*Matrix, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("tensor: %d columns", cols)
	}
	if len(data)%cols != 0 {
		return nil, fmt.Errorf("tensor: %d values do not tile %d columns", len(data), cols)
	}
	return &Matrix{data: data, rows: len(data) / cols, cols: cols}, nil
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the row width.
func (m *Matrix) Cols() int { return m.cols }

// Data exposes the flat backing slice (row-major, rows*cols values).
func (m *Matrix) Data() []float64 { return m.data[:m.rows*m.cols] }

// Row returns row i as a view into the backing array. The view is
// invalidated by a subsequent AppendRow that grows the backing array.
func (m *Matrix) Row(i int) []float64 {
	off := i * m.cols
	return m.data[off : off+m.cols : off+m.cols]
}

// AppendRow copies one row onto the end of the matrix, doubling the
// backing array when it is full (Append).
func (m *Matrix) AppendRow(row []float64) {
	if len(row) != m.cols {
		panic(fmt.Sprintf("tensor: append %d values to a %d-column matrix", len(row), m.cols))
	}
	m.data = Append(m.data, row...)
	m.rows++
}

// Append appends vals to s as append does, but doubles the capacity when
// it runs out. append grows a large slice about 1.25× per step, so a slice
// built to n values a few at a time copies about 4n values on the way;
// doubling copies at most n.
func Append(s []float64, vals ...float64) []float64 {
	if n := len(s) + len(vals); n > cap(s) {
		s = append(make([]float64, 0, max(2*cap(s), n)), s...)
	}
	return append(s, vals...)
}
