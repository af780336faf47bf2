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
