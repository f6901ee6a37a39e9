package sparse

import "testing"

func TestConstructorsRejectNegativeShapes(t *testing.T) {
	if _, err := NewDense[float64](2, -1); err == nil || err.Error() != "sparse: negative dense dimensions 2x-1" {
		t.Errorf("NewDense(2,-1) error = %v", err)
	}
	if _, err := NewDense[float64](-3, 1); err == nil || err.Error() != "sparse: negative dense dimensions -3x1" {
		t.Errorf("NewDense(-3,1) error = %v", err)
	}
	if d, err := NewDense[float64](2, 3); err != nil || d == nil || len(d.Data) != 6 {
		t.Errorf("NewDense(2,3) = %v, %v", d, err)
	}
	if d, err := NewDense[float64](0, 0); err != nil || d == nil || len(d.Data) != 0 {
		t.Errorf("NewDense(0,0) = %v, %v; want empty matrix", d, err)
	}
}

func TestDenseBasics(t *testing.T) {
	d := MustDense[int64](2, 3)
	d.Set(1, 2, 9)
	if d.At(1, 2) != 9 {
		t.Error("Set/At mismatch")
	}
	row := d.Row(1)
	if len(row) != 3 || row[2] != 9 {
		t.Error("Row view wrong")
	}
	row[0] = 4
	if d.At(1, 0) != 4 {
		t.Error("Row must be a view, not a copy")
	}
	c := MustDense[int64](d.Rows, d.Cols)
	copy(c.Data, d.Data)
	if !Equal(d, c, func(x, y int64) bool { return x == y }) {
		t.Error("a copy must equal its source")
	}
}

func TestDenseShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative shape")
		}
	}()
	MustDense[int64](-1, 2)
}

func TestEqualShapeMismatch(t *testing.T) {
	a := MustDense[int64](2, 2)
	b := MustDense[int64](2, 3)
	if Equal(a, b, func(x, y int64) bool { return x == y }) {
		t.Error("different shapes must not be equal")
	}
	c := MustDense[int64](2, 2)
	c.Set(1, 0, 1)
	if Equal(a, c, func(x, y int64) bool { return x == y }) {
		t.Error("different contents must not be equal")
	}
}
