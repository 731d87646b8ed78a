package thermal

import (
	"math/rand"
	"testing"
)

// TestMeshBuildersAgreeRandom holds NewModel to the all-pairs oracle on
// random multi-resolution meshes, with one and two silicon sub-layers and
// two copper sub-layers.
func TestMeshBuildersAgreeRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		si, cu := randomMesh(rng)
		opt := DefaultOptions()
		opt.NzSi, opt.NzCu = 1+int(seed%2), 1+int(seed%3)/2
		if d := CompareBuilders(si, cu, opt); d != "" {
			t.Fatalf("seed %d (%d cells): %s", seed, len(si), d)
		}
	}
}

// TestMeshBuildersAgreeOnErrors: the first overlap found, and so the error
// text, matches the oracle's when cells overlap, and when the spreader
// grid leaves a silicon cell uncovered.
func TestMeshBuildersAgreeOnErrors(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		si, cu := randomMesh(rng)
		// Shift two cells so each overlaps a neighbour.
		for k := 0; k < 2; k++ {
			i := rng.Intn(len(si))
			si[i].X += si[i].W * (0.2 + 0.6*rng.Float64())
		}
		if seed%4 == 0 {
			cu[0].X += cu[0].W / 2
			si = si[:1]
		}
		if _, err := newModelAllPairs(si, cu, DefaultOptions()); err == nil {
			t.Fatalf("seed %d: the oracle accepted the perturbed mesh", seed)
		}
		if d := CompareBuilders(si, cu, DefaultOptions()); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
	si := UniformGrid(2e-3, 2e-3, 4, 4)
	cu := UniformGrid(2e-3, 2e-3, 2, 2)
	cu[3].W /= 2
	if _, err := NewModel(si, cu, DefaultOptions()); err == nil {
		t.Fatal("a spreader grid with a hole was accepted")
	}
	if d := CompareBuilders(si, cu, DefaultOptions()); d != "" {
		t.Fatal(d)
	}
}

// mesh150 is a 150-cell multi-resolution die: a 12×12 grid with two cells
// refined.
func mesh150() (si, cu []Rect) {
	n := 0
	si = RefineGrid(UniformGrid(4e-3, 4e-3, 12, 12), func(Rect) bool { n++; return n <= 2 })
	return si, UniformGrid(4e-3, 4e-3, 3, 3)
}

// TestNewModelAllocs bounds the allocations of building a 150-cell model:
// a fixed set of arrays, independent of the cell count.
func TestNewModelAllocs(t *testing.T) {
	si, cu := mesh150()
	if len(si) != 150 {
		t.Fatalf("mesh has %d cells", len(si))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewModel(si, cu, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Errorf("NewModel at 150 cells: %.0f allocs, want at most 48", allocs)
	}
}
