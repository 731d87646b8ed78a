package thermal_test

import (
	"math"
	"testing"

	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
)

// TestSubstepAccuracy is the accuracy contract of the production Step: τ_min
// sub-steps, or two-rate macro-steps of 2·τ_min on a mesh whose refined
// cells alone set τ_min. On the meshes the committed workloads solve, it
// integrates a heat/cool power trace one window at a time at each
// workload's thermal span and compares, after every window, each cell of
// the production Step with the same model stepped at τ_min/8. The
// production error must stay below boundK; the error of a τ_min/2 step is
// logged beside it, so the log shows what the larger step costs in kelvin.
// Work is counted in cell updates (kernel lanes advanced). The production
// Step must take at most 0.55× the updates of the τ_min/2 run, so a halved
// step fails here; only the 150-cell mesh splits its cells by rate, and
// there Step must take at most 1/1.8 of the updates of a single-rate τ_min
// run of the same mesh.
//
// Every model starts at the steady state of 6 W (the ARM11 die draws 6.45 W
// at full power), spread like the floorplan's component maximum powers and
// over 100 K above ambient, and then runs heatPattern: 6 W in an H window,
// 0 W in a C.
func TestSubstepAccuracy(t *testing.T) {
	const (
		boundK      = 0.05
		dieWatts    = 6.0
		heatPattern = "CCCCCHHHHHCCHH"
	)
	for _, c := range []struct {
		name  string
		fp    *floorplan.Floorplan
		cells int
		span  float64 // thermal seconds per window
		fine  int     // kernel slices that step at the fine rate
	}{
		{"fig6/arm11-28", floorplan.FourARM11(), 28, 0.4, 0},
		{"grid/arm11-28", floorplan.FourARM11(), 28, 0.2, 0},
		{"grid/arm7-28", floorplan.FourARM7(), 28, 0.2, 0},
		{"hostlink/arm11-150", floorplan.FourARM11(), 150, 0.4, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			si := c.fp.GridTargetCells(c.cells)
			cu := thermal.UniformGrid(c.fp.DieW, c.fp.DieH, 3, 3)
			newModel := func() *thermal.Model {
				m, err := thermal.NewModel(si, cu, thermal.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			prod, single, half, ref := newModel(), newModel(), newModel(), newModel()
			if got := thermal.FineSlices(prod); got != c.fine {
				t.Fatalf("%d fine slices, want %d", got, c.fine)
			}
			thermal.SingleRate(single)
			prodUpdates := thermal.CountCellUpdates(prod)
			singleUpdates := thermal.CountCellUpdates(single)
			halfUpdates := thermal.CountCellUpdates(half)

			comp := make([]float64, len(c.fp.Components))
			var total float64
			for i := range c.fp.Components {
				total += c.fp.Components[i].Model.MaxPowerW
			}
			for i := range c.fp.Components {
				comp[i] = c.fp.Components[i].Model.MaxPowerW * dieWatts / total
			}
			heat := floorplan.NewPowerMap(c.fp, si).CellPowers(comp, nil)
			cool := make([]float64, len(heat))

			for _, m := range []*thermal.Model{prod, single, half, ref} {
				if err := m.SetPowers(heat); err != nil {
					t.Fatal(err)
				}
				if _, err := m.SteadyState(1e-9, 100000); err != nil {
					t.Fatal(err)
				}
			}
			tau0, peak := thermal.TauMin(prod), ref.MaxTemp()-thermal.DefaultProperties().AmbientK
			var prodErr, halfErr float64
			for _, w := range heatPattern {
				pw := heat
				if w == 'C' {
					pw = cool
				}
				for _, m := range []*thermal.Model{prod, single, half, ref} {
					if err := m.SetPowers(pw); err != nil {
						t.Fatal(err)
					}
				}
				prod.Step(c.span)
				single.Step(c.span)
				stepAt(half, c.span, 0.5)
				stepAt(ref, c.span, 0.125)
				want := ref.AllTemps()
				prodErr = max(prodErr, maxAbsDiff(prod.AllTemps(), want))
				halfErr = max(halfErr, maxAbsDiff(half.AllTemps(), want))
			}
			windows := len(heatPattern)
			t.Logf("τ_min %.1f µs hot, %.0f K peak rise: max |ΔT| per window %.4f K by Step (%d cell updates per window, %d single-rate), %.4f K at τ_min/2 (%d)",
				tau0*1e6, peak, prodErr, *prodUpdates/windows, *singleUpdates/windows, halfErr, *halfUpdates/windows)
			if prodErr >= boundK {
				t.Errorf("max |ΔT| per window %.4f K by Step, want below %.2f K", prodErr, boundK)
			}
			if float64(*prodUpdates) > 0.55*float64(*halfUpdates) {
				t.Errorf("Step took %d cell updates, more than 0.55× the %d of a τ_min/2 step", *prodUpdates, *halfUpdates)
			}
			if c.fine > 0 && 1.8*float64(*prodUpdates) > float64(*singleUpdates) {
				t.Errorf("Step took %d cell updates, more than 1/1.8 of the %d of a single-rate step", *prodUpdates, *singleUpdates)
			}
		})
	}
}

// stepAt integrates span seconds in Step calls of frac·τ_min each, τ_min
// re-read before every call.
func stepAt(m *thermal.Model, span, frac float64) {
	for rem := span; rem > 1e-15; {
		h := min(frac*thermal.TauMin(m), rem)
		m.Step(h)
		rem -= h
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
	}
	return d
}
