package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// randomMesh builds a randomized multi-resolution silicon grid and a coarser
// copper grid, as NewModel's contract requires (tiling, fully covered by the
// spreader).
func randomMesh(rng *rand.Rand) (si, cu []Rect) {
	nx := 3 + rng.Intn(5)
	ny := 3 + rng.Intn(5)
	die := (2 + 4*rng.Float64()) * 1e-3
	si = UniformGrid(die, die, nx, ny)
	// Refine a random subset into 2x2 sub-cells (multi-resolution mesh).
	si = RefineGrid(si, func(Rect) bool { return rng.Float64() < 0.3 })
	cuN := 1 + rng.Intn(3)
	cu = UniformGrid(die, die, cuN, cuN)
	return si, cu
}

// transientModel builds a one-sub-layer model on the given grids.
func transientModel(t *testing.T, si, cu []Rect) *Model {
	t.Helper()
	m, err := NewModel(si, cu, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParallelEnergyBalance asserts global energy balance through the
// transient solver (Step, where TestEnergyBalanceAtSteadyState goes
// through SteadyState), single-rate on a uniform mesh and two-rate on the
// link-host mesh: after integrating long past the package time constant
// (~1.1 s), the injected power equals the convected power.
func TestParallelEnergyBalance(t *testing.T) {
	si150, cu150 := mesh150()
	for _, c := range []struct {
		name   string
		si, cu []Rect
		fine   bool
	}{
		{"uniform", UniformGrid(4e-3, 4e-3, 8, 8), UniformGrid(4e-3, 4e-3, 4, 4), false},
		{"mesh150", si150, cu150, true},
	} {
		m := transientModel(t, c.si, c.cu)
		if (m.fineSlices > 0) != c.fine {
			t.Fatalf("%s: %d fine slices", c.name, m.fineSlices)
		}
		for i := 0; i < m.NumSurfaceCells(); i++ {
			m.SetPower(i, 0.01)
		}
		for i := 0; i < 200; i++ {
			m.Step(0.05) // 10 s total, ~9 package time constants
		}
		in, out := m.TotalPower(), m.ConvectedPower()
		if math.Abs(in-out)/in > 1e-3 {
			t.Errorf("%s: energy balance through Step: in %.9f W, convected %.9f W", c.name, in, out)
		}
	}
}

// TestParallelMonotoneCooling asserts monotone cooling step by step: with
// power removed, every subsequent observation of the hottest cell is no
// hotter than the last, and the trajectory approaches ambient from above
// without undershooting it.
func TestParallelMonotoneCooling(t *testing.T) {
	si := UniformGrid(3e-3, 3e-3, 6, 6)
	cu := UniformGrid(3e-3, 3e-3, 3, 3)
	m := transientModel(t, si, cu)
	for i := 0; i < m.NumSurfaceCells(); i++ {
		m.SetPower(i, 0.02)
	}
	for i := 0; i < 100; i++ {
		m.Step(0.05)
	}
	if m.MaxTemp() <= 301 {
		t.Fatalf("did not heat: %.3f K", m.MaxTemp())
	}
	for i := 0; i < m.NumSurfaceCells(); i++ {
		m.SetPower(i, 0)
	}
	prev := m.MaxTemp()
	for i := 0; i < 150; i++ {
		m.Step(0.05)
		cur := m.MaxTemp()
		if cur > prev+1e-12 {
			t.Fatalf("temperature rose to %.9f K (from %.9f) while cooling at step %d", cur, prev, i)
		}
		for j, v := range m.Temps() {
			if v < 300-1e-9 {
				t.Fatalf("cell %d undershot ambient: %.9f K", j, v)
			}
		}
		prev = cur
	}
	if prev > 300.05 {
		t.Errorf("still %.4f K after 7.5 s of cooling", prev)
	}
}

// TestParallelGridRefinementConvergence asserts grid-refinement
// convergence through the transient solver (TestGridRefinementConvergence
// goes through SteadyState): under a uniform power density, a coarse and a
// 4x-finer mesh integrated to (near) equilibrium by Step must agree on the
// temperature rise.
func TestParallelGridRefinementConvergence(t *testing.T) {
	die := 4e-3
	density := 5000.0 // W/m²
	run := func(n int) float64 {
		si := UniformGrid(die, die, n, n)
		cu := UniformGrid(die, die, n/2, n/2)
		m := transientModel(t, si, cu)
		for i, c := range si {
			m.SetPower(i, density*c.Area())
		}
		for i := 0; i < 240; i++ {
			m.Step(0.05) // 12 s, ~10 package time constants
		}
		return m.MaxTemp()
	}
	coarse, fine := run(4), run(8)
	if rel := math.Abs(coarse-fine) / (fine - 300); rel > 0.02 {
		t.Errorf("grid refinement changed rise by %.2f%% (coarse %.4f, fine %.4f)",
			rel*100, coarse, fine)
	}
}
