// Package thermal is the configurable SW thermal-modelling library of the
// framework (Section 5 of the DAC'06 paper). It evaluates the run-time
// thermal behaviour of a silicon bulk chip: the die and the copper heat
// spreader are divided into cells of several sizes (small cells at the
// crucial points for high resolution, larger ones elsewhere), and each cell
// becomes a node of an equivalent electrical RC circuit with four lateral
// thermal resistances, one vertical resistance and one capacitance
// (Figure 3).
//
// Following the paper, silicon uses non-linear thermal resistances that
// match the temperature dependence of conductivity, k(T) = 150·(300/T)^4/3
// W/mK, while the copper spreader uses linear resistances. Heat enters as
// equivalent current sources on the bottom-surface cells (power density of
// the covering architectural component times cell area); no heat leaves
// through the package below, and the top-surface cells evacuate heat by
// natural convection through a package-to-air resistance weighted by the
// cell-to-spreader area ratio. Every cell interacts only with its
// neighbours, so cost is linear in the number of cells.
//
// The network is kept as flat edge arrays with a per-cell CSR incidence
// index, which conductance refreshes, the step bound and the steady-state
// relaxation walk. Each forward-Euler sub-step, one smallest time constant
// τ_min long, runs on a sliced-ELL copy of that index (ell.go): cells
// sorted by neighbour count, four to a slice, advanced four at a time by an
// AVX2 body where the CPU has AVX2 and by a pure-Go body elsewhere. Both
// compute each cell's scalar operation sequence, so both bodies produce
// bit-identical trajectories.
//
// The multi-resolution grid steps at two rates when its smallest cells
// alone set τ_min. The cells whose τ = C/ΣG is below 2·τ_min, when they are
// fewer than half the cells, take the leading slices of the layout and
// sub-step at τ_min, while every other cell steps once per 2·τ_min against
// their mean temperature, which keeps the heat across the class boundary
// conserved. On meshes without such a gap every cell steps at τ_min.
package thermal

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Properties are the material and package constants of Table 2.
type Properties struct {
	SiK300   float64 // silicon conductivity at 300 K, W/(m·K)
	SiKExp   float64 // exponent of the (300/T) conductivity law
	SiCv     float64 // silicon volumetric specific heat, J/(m³·K)
	SiThick  float64 // die thickness, m
	CuK      float64 // copper conductivity, W/(m·K)
	CuCv     float64 // copper volumetric specific heat, J/(m³·K)
	CuThick  float64 // heat-spreader thickness, m
	PkgRes   float64 // package-to-air resistance, K/W
	AmbientK float64 // ambient temperature, K
}

// DefaultProperties returns Table 2 of the paper. The specific heats are
// the paper's 1.628e-12 and 3.55e-12 J/(µm³·K) converted to SI, and the
// 20 K/W package-to-air resistance is the paper's deliberately conservative
// low-power package value.
func DefaultProperties() Properties {
	return Properties{
		SiK300:   150,
		SiKExp:   4.0 / 3.0,
		SiCv:     1.628e6,
		SiThick:  350e-6,
		CuK:      400,
		CuCv:     3.55e6,
		CuThick:  1000e-6,
		PkgRes:   20,
		AmbientK: 300,
	}
}

// Validate checks physical plausibility.
func (p Properties) Validate() error {
	switch {
	case p.SiK300 <= 0 || p.CuK <= 0:
		return fmt.Errorf("thermal: conductivities must be positive")
	case p.SiCv <= 0 || p.CuCv <= 0:
		return fmt.Errorf("thermal: specific heats must be positive")
	case p.SiThick <= 0 || p.CuThick <= 0:
		return fmt.Errorf("thermal: thicknesses must be positive")
	case p.PkgRes <= 0:
		return fmt.Errorf("thermal: package resistance must be positive")
	case p.AmbientK <= 0:
		return fmt.Errorf("thermal: ambient temperature must be positive")
	}
	return nil
}

// SiConductivity evaluates the non-linear silicon conductivity at T kelvin.
// The paper's exponent 4/3 is evaluated as x·cbrt(x), which is considerably
// cheaper than math.Pow on the solver's hot path; other exponents fall back
// to math.Pow.
func (p Properties) SiConductivity(t float64) float64 {
	x := 300 / t
	if p.SiKExp == 4.0/3.0 {
		return p.SiK300 * x * math.Cbrt(x)
	}
	return p.SiK300 * math.Pow(x, p.SiKExp)
}

// Rect is an axis-aligned cell footprint in metres.
type Rect struct {
	X, Y, W, H float64
}

// Area returns the footprint area in m².
func (r Rect) Area() float64 { return r.W * r.H }

// Overlap returns the overlapping area of two footprints. For finite
// coordinates the builtin min and max agree with math.Min and math.Max.
func (r Rect) Overlap(o Rect) float64 {
	w := min(r.X+r.W, o.X+o.W) - max(r.X, o.X)
	h := min(r.Y+r.H, o.Y+o.H) - max(r.Y, o.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

const geomEps = 1e-9 // 1 nm tolerance on geometric coincidence

// contact returns the shared boundary length between two cells that abut
// laterally, and whether they do.
func contact(a, b Rect) (float64, bool) {
	// b to the right of a or a to the right of b.
	if math.Abs(a.X+a.W-b.X) < geomEps || math.Abs(b.X+b.W-a.X) < geomEps {
		l := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
		if l > geomEps {
			return l, true
		}
	}
	if math.Abs(a.Y+a.H-b.Y) < geomEps || math.Abs(b.Y+b.H-a.Y) < geomEps {
		l := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
		if l > geomEps {
			return l, true
		}
	}
	return 0, false
}

// nearPairs returns every pair i < j of cells whose X extents and Y extents
// each come within 2·geomEps: a superset of the pairs that overlap or abut,
// as uint64(i)<<32|j in ascending order, which is the (i, j > i) order of
// an all-pairs scan. One sort of the cells by X bounds the scan: from each
// cell it stops at the first cell that starts past its right edge.
func nearPairs(cells []Rect) []uint64 {
	const tol = 2 * geomEps
	order := make([]int32, len(cells))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(cells[a].X, cells[b].X) })
	pairs := make([]uint64, 0, 4*len(cells))
	for k, i := range order {
		a := cells[i]
		right, top := a.X+a.W+tol, a.Y+a.H+tol
		for _, j := range order[k+1:] {
			b := cells[j]
			if b.X > right {
				break
			}
			if b.Y > top || a.Y > b.Y+b.H+tol {
				continue
			}
			lo, hi := min(i, j), max(i, j)
			pairs = append(pairs, uint64(lo)<<32|uint64(hi))
		}
	}
	slices.Sort(pairs)
	return pairs
}

// checkOverlaps reports the first pair, in (i, j > i) order, of cells that
// overlap. Only near pairs can.
func checkOverlaps(name string, cells []Rect, pairs []uint64) error {
	for _, p := range pairs {
		a, b := cells[p>>32], cells[uint32(p)]
		if a.Overlap(b) > geomEps*geomEps {
			return fmt.Errorf("thermal: overlapping %s cells %v %v", name, a, b)
		}
	}
	return nil
}

// Options configures mesh construction and the solver.
type Options struct {
	Props Properties
	NzSi  int // silicon sub-layers (>=1)
	NzCu  int // copper sub-layers (>=1)

	// Deprecated: Workers is ignored; the solver is serial at every mesh
	// size. It is kept only until its last assignment goes (ROADMAP item 4).
	Workers int
}

// DefaultOptions returns Table 2 properties with one sub-layer per material.
func DefaultOptions() Options {
	return Options{Props: DefaultProperties(), NzSi: 1, NzCu: 1}
}

// siKTolK is the silicon temperature drift (kelvin) that triggers a
// conductance refresh; the conductivity law is smooth, so a 0.25 K drift
// changes k by well under 0.2%.
const siKTolK = 0.25

// edgeRec is the construction-time form of one thermal resistance joining
// cells a and b: conductance = area / (da/ka + db/kb), with da, db the
// half-distances from each node to the interface.
type edgeRec struct {
	a, b   int
	area   float64
	da, db float64
}

// Model is the RC thermal network in a flat, solver-friendly layout.
type Model struct {
	props Properties
	nSi2D int // cells per silicon sub-layer
	nzSi  int
	nSi   int // total silicon cells (the first nSi cells; copper follows)

	// Edges as struct-of-arrays. The [0, nVarEdges) prefix touches at
	// least one silicon cell, so its conductances depend on temperature
	// and are refreshed; the copper-copper suffix is computed once.
	edgeA, edgeB   []int32
	edgeArea       []float64
	edgeDa, edgeDb []float64
	edgeG          []float64
	nVarEdges      int

	// CSR incidence: cell i's edges are nbrEdge[nbrStart[i]:nbrStart[i+1]]
	// with the far endpoint in nbrCell. Each cell's flow is accumulated
	// from this index alone.
	nbrStart []int32
	nbrCell  []int32
	nbrEdge  []int32

	// The sub-step kernel's sliced-ELL layout (ell.go): perm maps kernel
	// slots to cells and pos cells to slots. body is the kernel body the
	// model runs. The leading fineSlices slices hold the fine cells of a
	// two-rate mesh (0 when every cell steps at one rate), and mean holds
	// their slots' mean temperature during a macro-step.
	ell        ellKernel
	perm       []int32
	pos        []int32
	body       substepBody
	fineSlices int
	mean       []float64

	convIdx []int     // top-copper cells with a convection path
	convG   []float64 // conductance paired with convIdx
	conv    []float64 // dense per-cell convection conductance (hot loop)

	capC  []float64 // per-cell thermal capacitance, J/K
	t     []float64 // temperatures, K (current state, cell order)
	pw    []float64 // injected power, W (bottom silicon cells)
	sumG  []float64 // per-cell total conductance (for the step bound)
	kCell []float64 // per-cell conductivity at the last refresh
	tAtK  []float64 // temperatures the conductances were evaluated at

	time     float64
	spreader float64 // spreader area, m²
}

// validateGrid rejects rectangles the RC construction cannot give a physical
// meaning: non-finite coordinates and zero or negative footprints (a
// zero-area cell would carry zero capacitance and break the explicit
// integrator's stability bound).
func validateGrid(name string, cells []Rect) error {
	for i, r := range cells {
		for _, v := range [4]float64{r.X, r.Y, r.W, r.H} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("thermal: %s cell %d has non-finite geometry %+v", name, i, r)
			}
		}
		if r.W <= geomEps || r.H <= geomEps {
			return fmt.Errorf("thermal: %s cell %d has degenerate footprint %+v", name, i, r)
		}
	}
	return nil
}

// NewModel builds the RC network. siCells is the 2D die discretisation
// (cells of several sizes are allowed; they must tile without overlapping),
// and cuCells the heat-spreader discretisation (commonly coarser). The two
// grids are replicated across NzSi and NzCu sub-layers. Power is injected
// on the bottom silicon sub-layer; convection leaves the top copper
// sub-layer.
func NewModel(siCells, cuCells []Rect, opt Options) (*Model, error) {
	if err := opt.Props.Validate(); err != nil {
		return nil, err
	}
	if len(siCells) == 0 || len(cuCells) == 0 {
		return nil, fmt.Errorf("thermal: both grids must be non-empty")
	}
	if opt.NzSi < 1 || opt.NzCu < 1 {
		return nil, fmt.Errorf("thermal: sub-layer counts must be >= 1")
	}
	if err := validateGrid("silicon", siCells); err != nil {
		return nil, err
	}
	if err := validateGrid("copper", cuCells); err != nil {
		return nil, err
	}
	siPairs, cuPairs := nearPairs(siCells), nearPairs(cuCells)
	if err := checkOverlaps("silicon", siCells, siPairs); err != nil {
		return nil, err
	}
	if err := checkOverlaps("copper", cuCells, cuPairs); err != nil {
		return nil, err
	}

	m := &Model{props: opt.Props, nSi2D: len(siCells), nzSi: opt.NzSi,
		nSi: len(siCells) * opt.NzSi}
	tSi := opt.Props.SiThick / float64(opt.NzSi)
	tCu := opt.Props.CuThick / float64(opt.NzCu)
	nCells := len(siCells)*opt.NzSi + len(cuCells)*opt.NzCu
	m.capC = make([]float64, 0, nCells)
	for z := 0; z < opt.NzSi; z++ {
		for _, r := range siCells {
			m.capC = append(m.capC, opt.Props.SiCv*r.Area()*tSi)
		}
	}
	for z := 0; z < opt.NzCu; z++ {
		for _, r := range cuCells {
			m.capC = append(m.capC, opt.Props.CuCv*r.Area()*tCu)
		}
	}
	for _, r := range cuCells {
		m.spreader += r.Area()
	}

	edges := make([]edgeRec, 0, opt.NzSi*(len(siPairs)+len(siCells))+opt.NzCu*(len(cuPairs)+len(cuCells)))
	// Lateral edges within each sub-layer. Only near pairs can abut, and
	// they come in the (i, j > i) order that fixes the edge order.
	addLateral := func(base int, grid []Rect, pairs []uint64, thick float64) {
		for _, p := range pairs {
			i, j := int(p>>32), int(uint32(p))
			if l, ok := contact(grid[i], grid[j]); ok {
				a, b := base+i, base+j
				var da, db float64
				// Half the centre distance along the contact normal.
				if math.Abs(grid[i].X+grid[i].W-grid[j].X) < geomEps ||
					math.Abs(grid[j].X+grid[j].W-grid[i].X) < geomEps {
					da, db = grid[i].W/2, grid[j].W/2
				} else {
					da, db = grid[i].H/2, grid[j].H/2
				}
				edges = append(edges, edgeRec{a: a, b: b, area: l * thick, da: da, db: db})
			}
		}
	}
	for z := 0; z < opt.NzSi; z++ {
		addLateral(z*len(siCells), siCells, siPairs, tSi)
	}
	cuBase := opt.NzSi * len(siCells)
	for z := 0; z < opt.NzCu; z++ {
		addLateral(cuBase+z*len(cuCells), cuCells, cuPairs, tCu)
	}

	// Vertical edges between consecutive silicon sub-layers.
	for z := 0; z+1 < opt.NzSi; z++ {
		for i := range siCells {
			edges = append(edges, edgeRec{a: z*len(siCells) + i, b: (z+1)*len(siCells) + i,
				area: siCells[i].Area(), da: tSi / 2, db: tSi / 2})
		}
	}
	// Vertical edges from top silicon sub-layer into bottom copper
	// sub-layer, by footprint overlap (the grids may differ).
	topSi := (opt.NzSi - 1) * len(siCells)
	for i, s := range siCells {
		coupled := 0.0
		for j, c := range cuCells {
			if ov := s.Overlap(c); ov > geomEps*geomEps {
				edges = append(edges, edgeRec{a: topSi + i, b: cuBase + j,
					area: ov, da: tSi / 2, db: tCu / 2})
				coupled += ov
			}
		}
		if coupled < s.Area()*0.999 {
			return nil, fmt.Errorf("thermal: silicon cell %d (%v) not fully covered by the spreader grid", i, s)
		}
	}
	// Vertical edges between copper sub-layers.
	for z := 0; z+1 < opt.NzCu; z++ {
		for i := range cuCells {
			edges = append(edges, edgeRec{a: cuBase + z*len(cuCells) + i,
				b:    cuBase + (z+1)*len(cuCells) + i,
				area: cuCells[i].Area(), da: tCu / 2, db: tCu / 2})
		}
	}

	// Convection from the top copper sub-layer: half the cell's vertical
	// resistance in series with the package-to-air resistance weighted by
	// the cell/spreader area ratio (paper Section 5.2).
	topCu := cuBase + (opt.NzCu-1)*len(cuCells)
	for i, c := range cuCells {
		rHalf := (tCu / 2) / (opt.Props.CuK * c.Area())
		rConv := opt.Props.PkgRes * (m.spreader / c.Area())
		m.convIdx = append(m.convIdx, topCu+i)
		m.convG = append(m.convG, 1/(rHalf+rConv))
	}

	m.finalize(nCells, edges)
	return m, nil
}

// finalize flattens the construction-time edge list into the CSR layout,
// lays out the sub-step kernel and sizes the solver state.
func (m *Model) finalize(nCells int, edges []edgeRec) {
	ne := len(edges)
	m.edgeA = make([]int32, ne)
	m.edgeB = make([]int32, ne)
	m.edgeArea = make([]float64, ne)
	m.edgeDa = make([]float64, ne)
	m.edgeDb = make([]float64, ne)
	m.edgeG = make([]float64, ne)
	// Partition: temperature-dependent (silicon-touching) edges first, so
	// refreshes touch a dense prefix; each part keeps construction order.
	i := 0
	for _, varying := range [2]bool{true, false} {
		for _, e := range edges {
			if (e.a < m.nSi || e.b < m.nSi) == varying {
				m.edgeA[i], m.edgeB[i] = int32(e.a), int32(e.b)
				m.edgeArea[i], m.edgeDa[i], m.edgeDb[i] = e.area, e.da, e.db
				i++
			}
		}
		if varying {
			m.nVarEdges = i
		}
	}

	// CSR incidence index.
	deg := make([]int32, nCells+1)
	for i := range m.edgeA {
		deg[m.edgeA[i]+1]++
		deg[m.edgeB[i]+1]++
	}
	for i := 0; i < nCells; i++ {
		deg[i+1] += deg[i]
	}
	m.nbrStart = deg
	fill := make([]int32, nCells)
	m.nbrCell = make([]int32, 2*ne)
	m.nbrEdge = make([]int32, 2*ne)
	for i := range m.edgeA {
		a, b := m.edgeA[i], m.edgeB[i]
		pa := m.nbrStart[a] + fill[a]
		m.nbrCell[pa], m.nbrEdge[pa] = b, int32(i)
		fill[a]++
		pb := m.nbrStart[b] + fill[b]
		m.nbrCell[pb], m.nbrEdge[pb] = a, int32(i)
		fill[b]++
	}

	m.conv = make([]float64, nCells)
	for k, ci := range m.convIdx {
		m.conv[ci] = m.convG[k]
	}
	m.t = make([]float64, nCells)
	for i := range m.t {
		m.t[i] = m.props.AmbientK
	}
	m.pw = make([]float64, m.nSi2D) // bottom silicon sub-layer only
	m.sumG = make([]float64, nCells)
	m.kCell = make([]float64, nCells)
	m.tAtK = make([]float64, nCells)

	// The conductances at ambient give the time constants the layout
	// classifies the cells by.
	m.evalConductances()
	m.buildELL()
	m.loadKernel()
	m.body = avx2Body
	if m.body == nil {
		m.body = (*ellKernel).substepGo
	}
}

// NumCells returns the total node count of the RC network.
func (m *Model) NumCells() int { return len(m.t) }

// NumSurfaceCells returns the number of bottom-silicon cells, i.e. the
// power-injection resolution.
func (m *Model) NumSurfaceCells() int { return m.nSi2D }

// NumEdges returns the resistor count (excluding convection resistors).
func (m *Model) NumEdges() int { return len(m.edgeA) }

// Time returns the simulated time in seconds.
func (m *Model) Time() float64 { return m.time }

// SetPower sets the injected power (W) of bottom-surface cell i.
func (m *Model) SetPower(i int, watts float64) { m.pw[i] = watts }

// SetPowers replaces the whole injected power vector; its length must be
// NumSurfaceCells.
func (m *Model) SetPowers(watts []float64) error {
	if len(watts) != m.nSi2D {
		return fmt.Errorf("thermal: power vector length %d, want %d", len(watts), m.nSi2D)
	}
	copy(m.pw, watts)
	return nil
}

// TotalPower returns the currently injected power in watts.
func (m *Model) TotalPower() float64 {
	var s float64
	for _, p := range m.pw {
		s += p
	}
	return s
}

// Temp returns the temperature of bottom-surface cell i (what an on-die
// sensor in that cell reads).
func (m *Model) Temp(i int) float64 { return m.t[i] }

// Temps copies the bottom-surface temperatures into a fresh slice.
func (m *Model) Temps() []float64 {
	return m.TempsInto(nil)
}

// TempsInto copies the bottom-surface temperatures into out, growing it
// only when its capacity is insufficient. Callers that hold on to a buffer
// across windows (the pipelined co-emulation loop) pay zero allocations in
// steady state.
func (m *Model) TempsInto(out []float64) []float64 {
	if cap(out) < m.nSi2D {
		out = make([]float64, m.nSi2D)
	}
	out = out[:m.nSi2D]
	copy(out, m.t[:m.nSi2D])
	return out
}

// AllTemps copies every node temperature (layer-major, silicon first).
func (m *Model) AllTemps() []float64 {
	out := make([]float64, len(m.t))
	copy(out, m.t)
	return out
}

// MaxTemp returns the hottest bottom-surface temperature.
func (m *Model) MaxTemp() float64 {
	max := m.t[0]
	for _, v := range m.t[1:m.nSi2D] {
		if v > max {
			max = v
		}
	}
	return max
}

// ConvectedPower returns the instantaneous heat flow into the ambient, W.
func (m *Model) ConvectedPower() float64 {
	var q float64
	for k, ci := range m.convIdx {
		q += m.convG[k] * (m.t[ci] - m.props.AmbientK)
	}
	return q
}

// updateConductances refreshes edge conductances at the current cell
// temperatures (the non-linear silicon law), the per-cell conductance sums
// the step bound reads, and the temperatures it used, so the solver can skip
// refreshes while they barely move, and loads them into the kernel.
func (m *Model) updateConductances() {
	m.evalConductances()
	m.loadKernel()
}

// evalConductances is updateConductances in cell order, without the
// kernel. After construction only the silicon-touching edge prefix is
// re-evaluated.
func (m *Model) evalConductances() {
	ne := m.nVarEdges
	if m.kCell[0] == 0 { // only true before the initial refresh
		ne = len(m.edgeA)
	}
	for i, ti := range m.t {
		if i < m.nSi {
			m.kCell[i] = m.props.SiConductivity(ti)
		} else {
			m.kCell[i] = m.props.CuK
		}
		m.tAtK[i] = ti
	}
	for e := range ne {
		m.edgeG[e] = m.edgeArea[e] /
			(m.edgeDa[e]/m.kCell[m.edgeA[e]] + m.edgeDb[e]/m.kCell[m.edgeB[e]])
	}
	for i := range m.t {
		s := m.conv[i]
		for k := m.nbrStart[i]; k < m.nbrStart[i+1]; k++ {
			s += m.edgeG[m.nbrEdge[k]]
		}
		m.sumG[i] = s
	}
}

// conductancesStale reports whether any silicon temperature drifted more
// than tol kelvin since the last conductance refresh (early exit on the
// first stale cell). Step calls it once on entry; within a Step each
// sub-step reports the same test for the cells it wrote.
func (m *Model) conductancesStale(tol float64) bool {
	t, tAtK := m.t, m.tAtK
	for i := 0; i < m.nSi; i++ {
		d := t[i] - tAtK[i]
		if d > tol || d < -tol {
			return true
		}
	}
	return false
}

// stableDt returns the sub-step, τ_min, the smallest time constant C/ΣG,
// and the two-rate macro-step: 2·τ_min, capped by the smallest τ of a cell
// in the coarse slices. At h ≤ τ every weight of t' = (1 − h·ΣG/C)·t +
// (h/C)·(Σg·t_j + conv·amb + pw) is non-negative, so a sub-step is a convex
// combination that cannot oscillate or undershoot the ambient; the kernel
// reads the conductances this bound read (updateConductances fills both).
// A smaller step buys accuracy, not stability (TestSubstepAccuracy).
func (m *Model) stableDt() (tau, macro float64) {
	tau, coarse := math.Inf(1), math.Inf(1)
	fineSlots := int32(ellLanes * m.fineSlices)
	for i, c := range m.capC {
		if m.sumG[i] > 0 {
			ti := c / m.sumG[i]
			tau = min(tau, ti)
			if m.fineSlices > 0 && m.pos[i] >= fineSlots {
				coarse = min(coarse, ti)
			}
		}
	}
	return tau, min(2*tau, coarse)
}

// substepAll runs one sub-step of h seconds over every kernel slice and
// swaps the kernel's temperature buffers. It reports whether any silicon
// cell drifted more than siKTolK from the temperature its conductances were
// evaluated at: conductancesStale's test on the new state, folded into the
// pass that produces it.
func (m *Model) substepAll(h float64) (stale bool) {
	k := &m.ell
	stale = m.body(k, h, 0, len(k.rows)-1)
	k.t, k.tn = k.tn, k.t
	return stale
}

// macroStep advances every cell by H seconds at two rates. The fine slices
// take two sub-steps of H/2 while the coarse slots stay frozen; then the
// coarse slices take one step of H, reading each fine slot at the mean of
// its temperatures at the start of the two sub-steps. Across every
// fine-coarse edge both sides then move the same heat, g·H·(t_c − mean),
// and every update is a convex combination, since H/2 ≤ τ_min and H is at
// most every coarse-slice τ. It reports the drift test on the new state,
// like substepAll.
func (m *Model) macroStep(H float64) (stale bool) {
	k, f := &m.ell, m.fineSlices
	nf := ellLanes * f
	copy(m.mean, k.t[:nf])
	m.body(k, H/2, 0, f)
	copy(k.t[:nf], k.tn[:nf])
	fineStale := m.body(k, H/2, 0, f)
	for p, t0 := range m.mean {
		k.t[p] = (t0 + k.t[p]) * 0.5
	}
	coarseStale := m.body(k, H, f, len(k.rows)-1)
	k.t, k.tn = k.tn, k.t
	return fineStale || coarseStale
}

// Step advances the thermal state by dt seconds in forward-Euler sub-steps
// of τ_min (stableDt). On a two-rate mesh (fineSlices > 0) it advances in
// macro-steps instead: the fine cells, the refined cells that set τ_min,
// step at half the macro-step and every other cell at the whole, 2·τ_min
// or less (macroStep); a tail shorter than a macro-step runs in sub-steps
// of τ_min. The silicon conductances, and both steps with them, are
// refreshed whenever a silicon temperature drifts more than 0.25 K from the
// one they were evaluated at, a negligible cost next to per-sub-step
// re-evaluation. Sub-steps run in the kernel's slot order; temperatures are
// scattered in on entry and gathered back before a refresh and on return.
func (m *Model) Step(dt float64) {
	h, macro := m.stableDt()
	stale := m.conductancesStale(siKTolK)
	m.scatterIn()
	for remaining := dt; remaining > 1e-15; {
		if stale {
			m.gatherOut()
			m.updateConductances()
			h, macro = m.stableDt()
		}
		if m.fineSlices > 0 && macro <= remaining {
			stale = m.macroStep(macro)
			remaining -= macro
		} else {
			hs := min(h, remaining)
			stale = m.substepAll(hs)
			remaining -= hs
		}
	}
	m.gatherOut()
	m.time += dt
}

// ErrNoConvergence is wrapped by the error SteadyState returns when the
// relaxation does not reach the requested tolerance within its sweep budget;
// callers branch on it with errors.Is and may still use the model's state as
// a best-effort result.
var ErrNoConvergence = errors.New("thermal: steady state did not converge")

// SteadyState relaxes the network to its equilibrium for the current power
// vector with Gauss–Seidel iteration (non-linear conductances refreshed per
// sweep) over the CSR incidence index. It returns the number of sweeps used,
// or an error wrapping ErrNoConvergence if tolerance is not met within
// maxSweeps. Sweeps are intentionally serial: Gauss–Seidel uses in-sweep
// updates, so its trajectory is only deterministic in cell order.
func (m *Model) SteadyState(tol float64, maxSweeps int) (int, error) {
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		m.updateConductances()
		var maxDelta float64
		for i := range m.t {
			num := m.conv[i] * m.props.AmbientK
			den := m.conv[i]
			if i < len(m.pw) {
				num += m.pw[i]
			}
			for k := m.nbrStart[i]; k < m.nbrStart[i+1]; k++ {
				g := m.edgeG[m.nbrEdge[k]]
				num += g * m.t[m.nbrCell[k]]
				den += g
			}
			if den == 0 {
				continue
			}
			nt := num / den
			if d := math.Abs(nt - m.t[i]); d > maxDelta {
				maxDelta = d
			}
			m.t[i] = nt
		}
		if maxDelta < tol {
			return sweep, nil
		}
	}
	return maxSweeps, fmt.Errorf("%w to %g in %d sweeps", ErrNoConvergence, tol, maxSweeps)
}

// Reset returns every node to ambient and clears simulated time (the power
// vector is preserved).
func (m *Model) Reset() {
	for i := range m.t {
		m.t[i] = m.props.AmbientK
	}
	m.time = 0
}

// UniformGrid tiles a w×h metre die into nx×ny equal cells.
func UniformGrid(w, h float64, nx, ny int) []Rect {
	cells := make([]Rect, 0, nx*ny)
	cw, ch := w/float64(nx), h/float64(ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			cells = append(cells, Rect{X: float64(i) * cw, Y: float64(j) * ch, W: cw, H: ch})
		}
	}
	return cells
}

// RefineGrid splits every cell selected by pick into 2×2 sub-cells,
// producing the multi-resolution grids of Figure 3(a): smallest cells at
// the crucial points, larger ones where conditions are not critical.
func RefineGrid(cells []Rect, pick func(Rect) bool) []Rect {
	var out []Rect
	for _, c := range cells {
		if pick(c) {
			hw, hh := c.W/2, c.H/2
			out = append(out,
				Rect{c.X, c.Y, hw, hh},
				Rect{c.X + hw, c.Y, hw, hh},
				Rect{c.X, c.Y + hh, hw, hh},
				Rect{c.X + hw, c.Y + hh, hw, hh})
		} else {
			out = append(out, c)
		}
	}
	return out
}
