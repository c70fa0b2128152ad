package graph

import "fmt"

// ValueMatrix is a width-aware columnar vertex-value store: row i holds the
// Width-element value vector of vertex i, flattened row-major into Data
// (Data[i*Width : (i+1)*Width]). Width 1 is the scalar case of the paper's
// three evaluation applications; wider rows carry feature vectors for
// GNN-style message passing (§VII).
//
// The flat layout is deliberate: supersteps and transports move whole value
// columns with bulk copies instead of per-vertex boxing, and two matrices
// compare with one slice walk.
type ValueMatrix struct {
	// Width is the number of float64 values per row (>= 1).
	Width int
	// Data is the row-major backing store; len(Data) == Rows()*Width.
	Data []float64
}

// NewValueMatrix allocates a zeroed rows×width matrix (width < 1 selects 1).
func NewValueMatrix(rows, width int) *ValueMatrix {
	if width < 1 {
		width = 1
	}
	return &ValueMatrix{Width: width, Data: make([]float64, rows*width)}
}

// Rows returns the number of rows.
func (m *ValueMatrix) Rows() int {
	if m.Width < 1 {
		return len(m.Data)
	}
	return len(m.Data) / m.Width
}

// Row returns row i as a slice aliasing the backing store.
func (m *ValueMatrix) Row(i int) []float64 {
	return m.Data[i*m.Width : (i+1)*m.Width]
}

// Scalar returns column 0 of row i — the whole row in the width-1 case.
func (m *ValueMatrix) Scalar(i int) float64 { return m.Data[i*m.Width] }

// SetScalar stores v into column 0 of row i.
func (m *ValueMatrix) SetScalar(i int, v float64) { m.Data[i*m.Width] = v }

// At returns element (i, j).
func (m *ValueMatrix) At(i, j int) float64 { return m.Data[i*m.Width+j] }

// Clone returns a deep copy.
func (m *ValueMatrix) Clone() *ValueMatrix {
	c := &ValueMatrix{Width: m.Width, Data: make([]float64, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// EqualValues reports whether m and o have identical shape and contents
// under float64 == (so a NaN entry is never equal, even to a NaN in the
// same position — matching the scalar-era map comparison semantics).
func (m *ValueMatrix) EqualValues(o *ValueMatrix) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Width != o.Width || len(m.Data) != len(o.Data) {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// CheckShape validates that the matrix is rows×width with a consistent
// backing store; codecs and the engine call it on untrusted input.
func (m *ValueMatrix) CheckShape(rows int) error {
	if m.Width < 1 {
		return fmt.Errorf("graph: value matrix width %d < 1", m.Width)
	}
	if len(m.Data) != rows*m.Width {
		return fmt.Errorf("graph: value matrix has %d values for %d rows of width %d",
			len(m.Data), rows, m.Width)
	}
	return nil
}
