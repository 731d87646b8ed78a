package thermal

import "math"

// CountCellUpdates wraps m's kernel body with a counter of the lane
// updates it runs: four per slice per body call, padding lanes included,
// which is the work a sub-step or macro-step costs.
func CountCellUpdates(m *Model) *int {
	n, body := new(int), m.body
	m.body = func(k *ellKernel, h float64, lo, hi int) bool {
		*n += ellLanes * (hi - lo)
		return body(k, h, lo, hi)
	}
	return n
}

// FineSlices returns the number of leading kernel slices that step at the
// fine rate of a two-rate mesh, 0 when every cell steps at τ_min.
func FineSlices(m *Model) int { return m.fineSlices }

// SingleRate makes m step every cell at τ_min, as on a mesh without a rate
// split, so tests can compare the two-rate Step with the single-rate one.
func SingleRate(m *Model) { m.fineSlices = 0 }

// TauMin returns the smallest time constant C/ΣG of m's network at its
// last conductance refresh, computed apart from stableDt so tests can hold
// the sub-step to it.
func TauMin(m *Model) float64 {
	tau := math.Inf(1)
	for i, c := range m.capC {
		if m.sumG[i] > 0 {
			tau = min(tau, c/m.sumG[i])
		}
	}
	return tau
}
