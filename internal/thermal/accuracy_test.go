package thermal_test

import (
	"math"
	"testing"

	"thermemu/internal/floorplan"
	"thermemu/internal/thermal"
)

// TestSubstepAccuracy is the accuracy contract of the τ_min sub-step. On
// the meshes the committed workloads solve, it integrates a heat/cool power
// trace one window at a time at each workload's thermal span and compares,
// after every window, each cell of the production Step with the same model
// stepped at τ_min/8. The production error must stay below boundK; the
// error of a τ_min/2 step is logged beside it, so the log shows what the
// larger step costs in kelvin. The production Step must also take at most
// 0.55× the sub-steps of the τ_min/2 run, so a halved step fails here.
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
	}{
		{"fig6/arm11-28", floorplan.FourARM11(), 28, 0.4},
		{"grid/arm11-28", floorplan.FourARM11(), 28, 0.2},
		{"grid/arm7-28", floorplan.FourARM7(), 28, 0.2},
		{"hostlink/arm11-150", floorplan.FourARM11(), 150, 0.4},
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
			prod, half, ref := newModel(), newModel(), newModel()
			prodSteps, halfSteps := thermal.CountSubsteps(prod), thermal.CountSubsteps(half)

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

			for _, m := range []*thermal.Model{prod, half, ref} {
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
				for _, m := range []*thermal.Model{prod, half, ref} {
					if err := m.SetPowers(pw); err != nil {
						t.Fatal(err)
					}
				}
				prod.Step(c.span)
				stepAt(half, c.span, 0.5)
				stepAt(ref, c.span, 0.125)
				want := ref.AllTemps()
				prodErr = max(prodErr, maxAbsDiff(prod.AllTemps(), want))
				halfErr = max(halfErr, maxAbsDiff(half.AllTemps(), want))
			}
			t.Logf("τ_min %.1f µs hot, %.0f K peak rise: max |ΔT| per window %.4f K at τ_min (%d sub-steps), %.4f K at τ_min/2 (%d)",
				tau0*1e6, peak, prodErr, *prodSteps, halfErr, *halfSteps)
			if prodErr >= boundK {
				t.Errorf("max |ΔT| per window %.4f K at τ_min, want below %.2f K", prodErr, boundK)
			}
			if float64(*prodSteps) > 0.55*float64(*halfSteps) {
				t.Errorf("Step took %d sub-steps, more than 0.55× the %d of a τ_min/2 step", *prodSteps, *halfSteps)
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
