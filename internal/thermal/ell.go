package thermal

import "math"

// ellLanes is the slice width of the sub-step kernel: four float64 lanes,
// one 256-bit vector.
const ellLanes = 4

// ellKernel is the sub-step's sliced-ELL layout. Cells are stably sorted by
// rate class and neighbour count (buildELL) and grouped into slices of
// ellLanes lanes; a lane is one cell at its permuted position ("slot").
// Slice s owns slots [4s, 4s+4) and neighbour rows [rows[s], rows[s+1]) of g and idx, stored column-major:
// entry rows[s]+4r+l is lane l's r-th neighbour, in that cell's CSR order.
// A lane with fewer neighbours than the slice's widest is padded with
// conductance 0 and its own slot, which adds +0 to its flow; so are the
// lanes past the last cell. The asm body reads the fields through the
// offsets go_asm.h generates from this declaration.
type ellKernel struct {
	t, tn   []float64 // temperatures by slot: read, written (swapped per sub-step)
	negConv []float64 // −(convection conductance) by slot
	invCap  []float64 // 1/C by slot, 0 on padding
	pw      []float64 // injected power by slot, 0 for cells without power
	tAtK    []float64 // silicon temperature at the last refresh by slot, NaN elsewhere
	g       []float64 // neighbour conductances, column-major per slice
	idx     []int32   // neighbour slots, paired with g
	rows    []int32   // slice s's entries are [rows[s], rows[s+1])
	amb     float64   // ambient temperature, K
	tol     float64   // drift that marks the conductances stale, K
}

// substepBody advances slices [lo, hi) of k by one explicit-Euler sub-step
// of h seconds, reading k.t and writing k.tn, and reports whether any
// silicon lane drifted more than k.tol from k.tAtK.
type substepBody func(k *ellKernel, h float64, lo, hi int) (stale bool)

// avx2Body is the AVX2 kernel body, set once at start-up on amd64 when the
// CPU and OS support it, and nil elsewhere. A new Model runs it when it is
// set and substepGo otherwise.
var avx2Body substepBody

// substepGo is the portable kernel body. Every lane computes its cell's
// flow with the scalar operation sequence the AVX2 body vectorises:
//
//	q = (−conv)·(t_i − amb)
//	q = q + g·(t_j − t_i)      for each neighbour, in CSR order
//	q = q + pw
//	t_i' = t_i + (h·q)·(1/C)
//
// The float64 conversions forbid fused multiply-adds, so the result is the
// same on every architecture. All flows read the state at the start of the
// sub-step, so the result does not depend on the order slices run in.
func (k *ellKernel) substepGo(h float64, lo, hi int) (stale bool) {
	t, tn, g, idx, rows := k.t, k.tn, k.g, k.idx, k.rows
	negConv, invCap, pw, tAtK := k.negConv, k.invCap, k.pw, k.tAtK
	amb, tol := k.amb, k.tol
	for s := lo; s < hi; s++ {
		r0, r1 := int(rows[s]), int(rows[s+1])
		for l := 0; l < ellLanes; l++ {
			i := ellLanes*s + l
			ti := t[i]
			q := float64(negConv[i] * (ti - amb))
			for r := r0 + l; r < r1; r += ellLanes {
				q = q + float64(g[r]*(t[idx[r]]-ti))
			}
			q = q + pw[i]
			next := ti + float64(h*q*invCap[i])
			tn[i] = next
			if d := next - tAtK[i]; d > tol || d < -tol {
				stale = true
			}
		}
	}
	return stale
}

// buildELL lays out the sub-step kernel from the CSR index and the per-cell
// constants, in three allocations. perm maps slots to cells and pos cells
// to slots. The cells are sorted by rate class, fine first, then by
// neighbour count, with a counting sort, which is stable; a slice is as
// wide as its widest lane. A cell is fine when its τ = C/ΣG at ambient,
// where the model is built, is below 2·τ_min, and the classes are kept apart only when the
// fine cells are fewer than half the cells and leave at least one slice
// to the coarse: they then fill the leading fineSlices slices (a coarse
// cell that shares the last of them steps fine). Otherwise every cell is
// of one class and fineSlices is 0. Temperatures, powers and tAtK are
// filled in by scatterIn and loadKernel, conductances by loadKernel.
func (m *Model) buildELL() {
	n := len(m.capC)
	nSlices := (n + ellLanes - 1) / ellLanes
	nPad := ellLanes * nSlices
	deg := func(c int32) int32 { return m.nbrStart[c+1] - m.nbrStart[c] }
	var maxDeg int32
	for c := range int32(n) {
		maxDeg = max(maxDeg, deg(c))
	}
	tau0, _ := m.stableDt()
	fine := func(c int32) bool { return m.capC[c]/m.sumG[c] < 2*tau0 }
	nFine := 0
	for c := range int32(n) {
		if fine(c) {
			nFine++
		}
	}
	m.fineSlices = (nFine + ellLanes - 1) / ellLanes
	if 2*nFine >= n || m.fineSlices >= nSlices {
		m.fineSlices = 0
	}
	key := func(c int32) int32 {
		if m.fineSlices > 0 && !fine(c) {
			return maxDeg + 1 + deg(c)
		}
		return deg(c)
	}

	nKeys := int(maxDeg) + 1
	if m.fineSlices > 0 {
		nKeys *= 2
	}
	ints := make([]int32, 2*n+nSlices+1+nKeys)
	m.perm, m.pos = ints[:n:n], ints[n:2*n:2*n]
	rows, first := ints[2*n:2*n+nSlices+1:2*n+nSlices+1], ints[2*n+nSlices+1:]
	for c := range int32(n) {
		first[key(c)]++
	}
	for d, at := 0, int32(0); d < nKeys; d++ {
		first[d], at = at, at+first[d]
	}
	for c := range int32(n) {
		p := first[key(c)]
		first[key(c)]++
		m.perm[p], m.pos[c] = c, p
	}
	for s := 0; s < nSlices; s++ {
		var width int32
		for _, c := range m.perm[ellLanes*s : min(ellLanes*(s+1), n)] {
			width = max(width, deg(c))
		}
		rows[s+1] = rows[s] + ellLanes*width
	}
	nEnt := int(rows[nSlices])
	nMean := ellLanes * m.fineSlices

	f := make([]float64, 6*nPad+nEnt+nMean)
	carve := func(l int) []float64 {
		s := f[:l:l]
		f = f[l:]
		return s
	}
	k := &m.ell
	*k = ellKernel{t: carve(nPad), tn: carve(nPad), negConv: carve(nPad), invCap: carve(nPad),
		pw: carve(nPad), tAtK: carve(nPad), g: carve(nEnt), idx: make([]int32, nEnt), rows: rows,
		amb: m.props.AmbientK, tol: siKTolK}
	m.mean = carve(nMean)
	for p := range nPad {
		r, end := int(rows[p/ellLanes])+p%ellLanes, int(rows[p/ellLanes+1])
		if p < n {
			c := m.perm[p]
			for e := m.nbrStart[c]; e < m.nbrStart[c+1]; e++ {
				k.idx[r] = m.pos[m.nbrCell[e]]
				r += ellLanes
			}
			k.negConv[p], k.invCap[p] = -m.conv[c], 1/m.capC[c]
			if int(c) >= m.nSi {
				k.tAtK[p] = math.NaN() // never stale: |t' − NaN| > tol is false
			}
		} else { // padding stays at ambient: q = 0·0, t' = t + 0
			k.t[p], k.tn[p], k.tAtK[p] = m.props.AmbientK, m.props.AmbientK, math.NaN()
		}
		for ; r < end; r += ellLanes {
			k.idx[r] = int32(p)
		}
	}
}

// loadKernel copies the conductances and refresh temperatures that
// evalConductances left in cell order into the kernel's slots.
func (m *Model) loadKernel() {
	for c := range m.t {
		if c < m.nSi {
			m.ell.tAtK[m.pos[c]] = m.tAtK[c]
		}
		r := m.ellEntry(c)
		for k := m.nbrStart[c]; k < m.nbrStart[c+1]; k++ {
			m.ell.g[r] = m.edgeG[m.nbrEdge[k]]
			r += ellLanes
		}
	}
}

// ellEntry returns the kernel entry of cell c's first neighbour; the next
// ones follow every ellLanes entries.
func (m *Model) ellEntry(c int) int {
	p := int(m.pos[c])
	return int(m.ell.rows[p/ellLanes]) + p%ellLanes
}

// scatterIn copies the temperatures and injected powers into slot order
// for a Step's sub-steps.
func (m *Model) scatterIn() {
	for c, v := range m.t {
		m.ell.t[m.pos[c]] = v
	}
	for c, w := range m.pw {
		m.ell.pw[m.pos[c]] = w
	}
}

// gatherOut copies the slot-ordered temperatures back into cell order.
func (m *Model) gatherOut() {
	for p, c := range m.perm {
		m.t[c] = m.ell.t[p]
	}
}
