package thermal

import (
	"math"
	"slices"
	"testing"
)

// fuzzRects decodes up to six silicon rectangles from raw fuzz bytes. Each
// rectangle consumes four bytes interpreted in 20 µm units, so the fuzzer
// naturally produces degenerate (zero-width/height), overlapping, and
// disjoint layouts, all within a few millimetres of the origin.
func fuzzRects(data []byte) []Rect {
	const unit = 20e-6
	var rects []Rect
	for i := 0; i+4 <= len(data) && len(rects) < 6; i += 4 {
		rects = append(rects, Rect{
			X: float64(data[i]) * unit,
			Y: float64(data[i+1]) * unit,
			W: float64(data[i+2]) * unit,
			H: float64(data[i+3]) * unit,
		})
	}
	return rects
}

// twoRateSeed is a refined grid on which the rate split engages: two 2 mm
// cells beside four 0.5 mm cells, whose τ is about half theirs.
var twoRateSeed = []byte{0, 0, 100, 100, 100, 0, 100, 100,
	0, 100, 25, 25, 25, 100, 25, 25, 0, 125, 25, 25, 25, 125, 25, 25}

// FuzzNewModel feeds arbitrary cell rectangles to NewModel and requires one
// of two outcomes: a validation error, or a model whose Step keeps the
// discrete maximum principle. Heated, every temperature stays finite and
// never below ambient; cooled at zero power, every temperature stays
// between the ambient and the hottest temperature before cooling. A
// sub-step past τ_min can break it (2.5·τ_min fails the first seed), so a
// failure is a bug in grid validation or in the stable step. Either way
// the result must match the all-pairs oracle bit for bit, error text
// included. The cooling steps span several macro-steps, so on a grid
// whose refined cells split off (twoRateSeed) they run at two rates.
func FuzzNewModel(f *testing.F) {
	// Valid 2x2 grid of 1 mm cells.
	f.Add([]byte{0, 0, 50, 50, 50, 0, 50, 50, 0, 50, 50, 50, 50, 50, 50, 50})
	// Degenerate zero-width cell.
	f.Add([]byte{0, 0, 0, 50})
	// Two fully overlapping cells.
	f.Add([]byte{0, 0, 50, 50, 0, 0, 50, 50})
	// Disjoint islands.
	f.Add([]byte{0, 0, 20, 20, 200, 200, 20, 20})
	// Single valid cell.
	f.Add([]byte{10, 10, 100, 100})
	// Refined grid that steps at two rates.
	f.Add(twoRateSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		si := fuzzRects(data)
		if len(si) == 0 {
			return
		}
		// Copper spreader: uniform grid over the silicon bounding box, the
		// same construction real callers use. If the silicon is invalid the
		// box may be degenerate too — NewModel must reject that, not crash.
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, r := range si {
			minX = math.Min(minX, r.X)
			minY = math.Min(minY, r.Y)
			maxX = math.Max(maxX, r.X+r.W)
			maxY = math.Max(maxY, r.Y+r.H)
		}
		cuN := 1
		if len(si) > 2 {
			cuN = 2
		}
		cu := UniformGrid(maxX-minX, maxY-minY, cuN, cuN)
		for i := range cu {
			cu[i].X += minX
			cu[i].Y += minY
		}

		if d := CompareBuilders(si, cu, DefaultOptions()); d != "" {
			t.Fatalf("NewModel differs from the all-pairs oracle on %+v: %s", si, d)
		}
		m, err := NewModel(si, cu, DefaultOptions())
		if err != nil {
			return // rejecting bad input is a valid outcome
		}
		amb := DefaultProperties().AmbientK
		check := func(phase string, hi float64) {
			for i, v := range m.AllTemps() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: cell %d temperature is %v on accepted grid %+v", phase, i, v, si)
				}
				if v < amb-1e-9 {
					t.Fatalf("%s: cell %d at %.12f K undershot ambient %.1f K on accepted grid %+v", phase, i, v, amb, si)
				}
				if v > hi+1e-9 {
					t.Fatalf("%s: cell %d at %.12f K overshot %.12f K on accepted grid %+v", phase, i, v, hi, si)
				}
			}
		}
		m.SetPower(0, 0.2)
		for i := 0; i < 5; i++ {
			m.Step(1e-4)
		}
		check("heating", math.Inf(1))
		hottest := slices.Max(m.AllTemps())
		m.SetPower(0, 0)
		for i := 0; i < 5; i++ {
			m.Step(5e-3) // several τ_min of the millimetre cells
		}
		check("cooling", hottest)
	})
}
