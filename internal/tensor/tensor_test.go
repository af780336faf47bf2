package tensor

import (
	"testing"
)

func TestAppendRowAndViews(t *testing.T) {
	m := NewMatrix(3)
	m.AppendRow([]float64{1, 2, 3})
	m.AppendRow([]float64{4, 5, 6})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if got := m.Row(1); got[0] != 4 || got[2] != 6 {
		t.Fatalf("Row(1) = %v", got)
	}
	// Row views alias the backing array.
	m.Row(0)[1] = 42
	if m.Data()[1] != 42 {
		t.Fatal("row view does not alias backing array")
	}
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m, err := FromSlice(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Row(2)[1] != 6 {
		t.Fatalf("bad view: %dx%d", m.Rows(), m.Cols())
	}
	// No copy: mutations flow through.
	data[0] = 9
	if m.Row(0)[0] != 9 {
		t.Error("FromSlice copied")
	}
	if _, err := FromSlice(data, 4); err == nil {
		t.Error("non-tiling width accepted")
	}
	if _, err := FromSlice(data, 0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestRowViewCapIsClamped(t *testing.T) {
	m := NewMatrix(2)
	m.AppendRow([]float64{1, 2})
	m.AppendRow([]float64{3, 4})
	r := m.Row(0)
	if cap(r) != 2 {
		t.Fatalf("row view cap %d leaks into the next row, want 2", cap(r))
	}
}

func TestAppendRowPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMatrix(2).AppendRow([]float64{1})
}

// TestAppendDoubles: Append keeps append's values and doubles the capacity
// when full, so growing a matrix to n rows reallocates only O(log n) times.
func TestAppendDoubles(t *testing.T) {
	var s []float64
	grows := 0
	for i := 0; i < 1000; i++ {
		before := cap(s)
		s = Append(s, float64(i))
		if c := cap(s); c != before {
			grows++
			if before > 0 && c != 2*before {
				t.Fatalf("capacity grew %d -> %d, want %d", before, c, 2*before)
			}
		}
	}
	if grows != 11 { // 1, 2, 4, ..., 1024
		t.Fatalf("%d reallocations for 1000 values, want 11", grows)
	}
	for i, v := range s {
		if v != float64(i) {
			t.Fatalf("s[%d] = %v", i, v)
		}
	}
	m := NewMatrix(3)
	for i := 0; i < 100; i++ {
		m.AppendRow([]float64{float64(i), 0, 0})
	}
	if m.Rows() != 100 || m.Row(99)[0] != 99 || cap(m.Data()) != 384 {
		t.Fatalf("rows %d, last %v, cap %d; want 100, 99, 384", m.Rows(), m.Row(99)[0], cap(m.Data()))
	}
}
