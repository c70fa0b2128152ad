package graph

import "testing"

func TestValueMatrixShapeAndAccessors(t *testing.T) {
	m := NewValueMatrix(4, 3)
	if m.Rows() != 4 || m.Width != 3 || len(m.Data) != 12 {
		t.Fatalf("shape: rows %d width %d len %d", m.Rows(), m.Width, len(m.Data))
	}
	copy(m.Row(1), []float64{1, 2, 3})
	m.SetScalar(2, 9)
	if m.At(1, 2) != 3 || m.Scalar(1) != 1 || m.Scalar(2) != 9 {
		t.Fatalf("accessors: %v", m.Data)
	}
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] == 99 {
		t.Fatal("Clone aliases the original")
	}
	if !m.EqualValues(m.Clone()) {
		t.Fatal("EqualValues(clone) = false")
	}
	if m.EqualValues(c) {
		t.Fatal("EqualValues ignored a difference")
	}
	if m.EqualValues(NewValueMatrix(4, 2)) {
		t.Fatal("EqualValues ignored a width difference")
	}
	if err := m.CheckShape(4); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckShape(5); err == nil {
		t.Fatal("wrong row count accepted")
	}
	if err := (&ValueMatrix{Width: 0}).CheckShape(0); err == nil {
		t.Fatal("zero width accepted")
	}
	// Width < 1 constructor input normalizes to scalar.
	if w := NewValueMatrix(2, 0).Width; w != 1 {
		t.Fatalf("width %d", w)
	}
}
