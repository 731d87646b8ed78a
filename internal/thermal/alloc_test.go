package thermal

import "testing"

// TestStepAllocsZero pins the solver's share of the zero-allocation window
// contract: a Step that refreshes the non-linear conductances on the
// 28-cell closed-loop mesh must not touch the heap.
func TestStepAllocsZero(t *testing.T) {
	m, err := NewModel(UniformGrid(4e-3, 4e-3, 7, 4), UniformGrid(4e-3, 4e-3, 3, 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSurfaceCells() != 28 {
		t.Fatalf("want a 28-cell model, got %d cells", m.NumSurfaceCells())
	}
	for i := 0; i < m.NumSurfaceCells(); i++ {
		m.SetPower(i, 2)
	}
	at := m.tAtK[0]
	allocs := testing.AllocsPerRun(20, func() { m.Step(0.05) })
	if m.tAtK[0] == at {
		t.Fatal("no conductance refresh happened: raise the power")
	}
	if allocs != 0 {
		t.Errorf("Model.Step: %.1f allocs/run, want 0", allocs)
	}
}
