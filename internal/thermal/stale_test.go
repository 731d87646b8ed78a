package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// stepScanning is Step with the drift test as its own pass over the
// silicon cells before every sub-step or macro-step: the reference the
// folded test in the kernel bodies must reproduce.
func (m *Model) stepScanning(dt float64) {
	h, macro := m.stableDt()
	m.scatterIn()
	for remaining := dt; remaining > 1e-15; {
		m.gatherOut()
		if m.conductancesStale(siKTolK) {
			m.updateConductances()
			h, macro = m.stableDt()
		}
		if m.fineSlices > 0 && macro <= remaining {
			m.macroStep(macro)
			remaining -= macro
		} else {
			hs := min(h, remaining)
			m.substepAll(hs)
			remaining -= hs
		}
	}
	m.gatherOut()
	m.time += dt
}

// TestStaleFoldMatchesScan: folding the drift test into the sub-step leaves
// every trajectory bit-identical, with one and two silicon sub-layers,
// through heating and cooling windows.
func TestStaleFoldMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		si, cu := randomMesh(rng)
		opt := DefaultOptions()
		opt.NzSi = 1 + int(seed%2)
		folded, err := NewModel(si, cu, opt)
		if err != nil {
			t.Fatal(err)
		}
		scanning, err := NewModel(si, cu, opt)
		if err != nil {
			t.Fatal(err)
		}
		pw := make([]float64, folded.NumSurfaceCells())
		for w := 0; w < 40; w++ {
			for i := range pw {
				pw[i] = 0
				if w%10 < 6 {
					pw[i] = 0.2 * rng.Float64()
				}
			}
			if err := folded.SetPowers(pw); err != nil {
				t.Fatal(err)
			}
			if err := scanning.SetPowers(pw); err != nil {
				t.Fatal(err)
			}
			folded.Step(0.02)
			scanning.stepScanning(0.02)
		}
		if folded.MaxTemp()-folded.props.AmbientK < 5*siKTolK {
			t.Fatalf("seed %d: %.3f K of heating is too little to drive refreshes", seed, folded.MaxTemp()-folded.props.AmbientK)
		}
		ft, st := folded.AllTemps(), scanning.AllTemps()
		for i := range ft {
			if math.Float64bits(ft[i]) != math.Float64bits(st[i]) {
				t.Fatalf("seed %d: cell %d %.17g, scanning reference %.17g", seed, i, ft[i], st[i])
			}
		}
	}
}
