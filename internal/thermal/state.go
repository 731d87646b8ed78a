package thermal

import "fmt"

// ModelState is the checkpointable state of a thermal Model: cell
// temperatures, the temperatures the conductances were last evaluated at,
// injected powers and simulated time. Conductances themselves are not
// stored — they are a pure function of TAtK, so RestoreState recomputes
// them bit-exactly.
type ModelState struct {
	T    []float64 // current cell temperatures, K
	TAtK []float64 // temperatures at the last conductance refresh, K
	Pw   []float64 // injected power, W (bottom silicon cells)
	Time float64   // simulated seconds
}

// SaveState captures the model for checkpointing.
func (m *Model) SaveState() ModelState {
	return ModelState{
		T:    append([]float64(nil), m.t...),
		TAtK: append([]float64(nil), m.tAtK...),
		Pw:   append([]float64(nil), m.pw...),
		Time: m.time,
	}
}

// RestoreState rewinds the model to a saved state. The conductance tables
// are rebuilt by evaluating the conductance law at TAtK — by definition the
// temperatures of the last refresh — which reproduces kCell/edgeG/sumG and
// the kernel conductances bit-identically without storing them.
func (m *Model) RestoreState(s ModelState) error {
	if len(s.T) != len(m.t) || len(s.TAtK) != len(m.tAtK) || len(s.Pw) != len(m.pw) {
		return fmt.Errorf("thermal: checkpoint has %d/%d/%d cells, model has %d/%d/%d",
			len(s.T), len(s.TAtK), len(s.Pw), len(m.t), len(m.tAtK), len(m.pw))
	}
	copy(m.t, s.TAtK)
	m.updateConductances()
	copy(m.t, s.T)
	copy(m.tAtK, s.TAtK)
	copy(m.pw, s.Pw)
	m.time = s.Time
	return nil
}
