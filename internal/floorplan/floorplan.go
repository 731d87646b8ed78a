// Package floorplan defines the physical layout of the emulated MPSoC dies:
// which architectural components (cores, caches, memories, NoC switches)
// occupy which rectangles of silicon, how the die is discretised into the
// thermal cells of the SW thermal library, and how per-component power maps
// onto per-cell injected power.
//
// The two reference floorplans of the paper's Figure 4 are provided: four
// ARM7 cores at 100 MHz and four ARM11 cores at 500 MHz, both in 130 nm.
// Component areas are derived from the paper's Table 1 power densities
// (area = max power / max density).
package floorplan

import (
	"fmt"
	"math"
	"sort"

	"thermemu/internal/power"
	"thermemu/internal/thermal"
)

// ComponentKind classifies floorplan components.
type ComponentKind string

// Component kinds.
const (
	KindCore      ComponentKind = "core"
	KindICache    ComponentKind = "icache"
	KindDCache    ComponentKind = "dcache"
	KindPrivMem   ComponentKind = "privmem"
	KindSharedMem ComponentKind = "sharedmem"
	KindNoCSwitch ComponentKind = "nocswitch"
	KindBus       ComponentKind = "bus"
)

// Component is one placed architectural block.
type Component struct {
	Name   string
	Kind   ComponentKind
	Rect   thermal.Rect
	Model  power.Model
	CoreID int // owning core, or -1 for shared components
}

// Floorplan is a placed die.
type Floorplan struct {
	Name       string
	DieW, DieH float64 // metres
	Components []Component
}

// Validate checks that all components sit inside the die without overlaps.
func (fp *Floorplan) Validate() error {
	if fp.DieW <= 0 || fp.DieH <= 0 {
		return fmt.Errorf("floorplan %s: non-positive die", fp.Name)
	}
	const eps = 1e-12
	for i := range fp.Components {
		c := &fp.Components[i]
		r := c.Rect
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("floorplan %s: component %s has empty rect", fp.Name, c.Name)
		}
		if r.X < -eps || r.Y < -eps || r.X+r.W > fp.DieW+eps || r.Y+r.H > fp.DieH+eps {
			return fmt.Errorf("floorplan %s: component %s outside die", fp.Name, c.Name)
		}
		for j := i + 1; j < len(fp.Components); j++ {
			if o := &fp.Components[j]; r.Overlap(o.Rect) > 1e-15 {
				return fmt.Errorf("floorplan %s: %s overlaps %s", fp.Name, c.Name, o.Name)
			}
		}
	}
	return nil
}

// DieArea returns the die area in m².
func (fp *Floorplan) DieArea() float64 { return fp.DieW * fp.DieH }

// UsedArea returns the summed component area in m².
func (fp *Floorplan) UsedArea() float64 {
	var a float64
	for _, c := range fp.Components {
		a += c.Rect.Area()
	}
	return a
}

// Utilisation returns used area over die area.
func (fp *Floorplan) Utilisation() float64 { return fp.UsedArea() / fp.DieArea() }

// Find returns the index of the named component, or -1.
func (fp *Floorplan) Find(name string) int {
	for i, c := range fp.Components {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// OfCore returns the indices of the components owned by the given core.
func (fp *Floorplan) OfCore(core int) []int {
	var out []int
	for i, c := range fp.Components {
		if c.CoreID == core {
			out = append(out, i)
		}
	}
	return out
}

// shelfPack places blocks (given as w/h pairs, already sized) into a region
// of the given width using first-fit decreasing-height shelves. It returns
// the placements in input order and the total height used.
func shelfPack(sizes []thermal.Rect, width float64) ([]thermal.Rect, float64) {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return sizes[idx[a]].H > sizes[idx[b]].H })
	out := make([]thermal.Rect, len(sizes))
	var x, y, shelfH float64
	for _, i := range idx {
		b := sizes[i]
		if x+b.W > width+1e-12 { // open a new shelf
			y += shelfH
			x, shelfH = 0, 0
		}
		out[i] = thermal.Rect{X: x, Y: y, W: b.W, H: b.H}
		x += b.W
		if b.H > shelfH {
			shelfH = b.H
		}
	}
	return out, y + shelfH
}

// squareOf returns a square rect sized for the model's implied area.
func squareOf(m power.Model) thermal.Rect {
	s := math.Sqrt(m.AreaM2())
	return thermal.Rect{W: s, H: s}
}

// quadConfig describes the per-core block set of a four-core floorplan.
type quadConfig struct {
	core, icache, dcache, privmem power.Model
}

// fourCore builds a 2×2-quadrant floorplan: each quadrant holds one core
// with its caches and private memory; the shared memory and the NoC
// switches sit in a central strip between the quadrant rows, mirroring the
// arrangement of Figure 4.
func fourCore(name string, q quadConfig, switches int) *Floorplan {
	blocks := []thermal.Rect{squareOf(q.core), squareOf(q.icache), squareOf(q.dcache), squareOf(q.privmem)}
	var quadArea float64
	for _, b := range blocks {
		quadArea += b.Area()
	}
	// 40% whitespace so the shelf packer always fits.
	quadW := math.Sqrt(quadArea * 1.4)
	placed, quadH := shelfPack(blocks, quadW)
	if quadH > quadW {
		quadW = quadH // keep quadrants square-ish
	}

	// Central strip: shared memory and NoC switches.
	shared := squareOf(power.Mem32K)
	sw := squareOf(power.NoCSwitch)
	stripBlocks := []thermal.Rect{shared}
	for i := 0; i < switches; i++ {
		stripBlocks = append(stripBlocks, sw)
	}
	stripPlaced, stripH := shelfPack(stripBlocks, 2*quadW)
	stripH *= 1.2 // strip whitespace

	fp := &Floorplan{Name: name, DieW: 2 * quadW, DieH: 2*quadH + stripH}
	kinds := []ComponentKind{KindCore, KindICache, KindDCache, KindPrivMem}
	models := []power.Model{q.core, q.icache, q.dcache, q.privmem}
	for core := 0; core < 4; core++ {
		ox := float64(core%2) * quadW
		oy := float64(core/2) * (quadH + stripH)
		for b, r := range placed {
			fp.Components = append(fp.Components, Component{
				Name:   fmt.Sprintf("%s%d", kinds[b], core),
				Kind:   kinds[b],
				Rect:   thermal.Rect{X: ox + r.X, Y: oy + r.Y, W: r.W, H: r.H},
				Model:  models[b],
				CoreID: core,
			})
		}
	}
	for i, r := range stripPlaced {
		c := Component{
			Rect:   thermal.Rect{X: r.X, Y: quadH + r.Y, W: r.W, H: r.H},
			CoreID: -1,
		}
		if i == 0 {
			c.Name, c.Kind, c.Model = "sharedmem", KindSharedMem, power.Mem32K
		} else {
			c.Name, c.Kind, c.Model = fmt.Sprintf("switch%d", i-1), KindNoCSwitch, power.NoCSwitch
		}
		fp.Components = append(fp.Components, c)
	}
	return fp
}

// FourARM7 returns floorplan (a) of Figure 4: four ARM7 cores at 100 MHz
// with 8 kB DM I-caches, 8 kB 2-way D-caches, 32 kB private memories, one
// 32 kB shared memory and four NoC switches, in 130 nm.
func FourARM7() *Floorplan {
	return fourCore("4xARM7", quadConfig{
		core: power.ARM7, icache: power.ICache8KDM,
		dcache: power.DCache8K2W, privmem: power.Mem32K,
	}, 4)
}

// FourARM11 returns floorplan (b) of Figure 4: the same organisation with
// four ARM11 cores at 500 MHz.
func FourARM11() *Floorplan {
	return fourCore("4xARM11", quadConfig{
		core: power.ARM11, icache: power.ICache8KDM,
		dcache: power.DCache8K2W, privmem: power.Mem32K,
	}, 4)
}

// maxDensityIn returns the highest component power density (W/m²)
// overlapping the cell. The loops over components index them in place:
// a Component carries its power model by value, too large to copy per
// cell.
func (fp *Floorplan) maxDensityIn(cell thermal.Rect) float64 {
	var d float64
	for i := range fp.Components {
		if c := &fp.Components[i]; c.Rect.Overlap(cell) > 0 {
			if v := c.Model.DensityWmm2 * 1e6; v > d {
				d = v
			}
		}
	}
	return d
}

// Grid discretises the die into a uniform nx×ny thermal grid.
func (fp *Floorplan) Grid(nx, ny int) []thermal.Rect {
	return thermal.UniformGrid(fp.DieW, fp.DieH, nx, ny)
}

// GridRefined builds a multi-resolution grid: starting from nx×ny, the
// refine highest-density cells are split 2×2 (Figure 3(a): smallest cells
// at the crucial points). The resulting cell count is nx·ny + 3·refine.
func (fp *Floorplan) GridRefined(nx, ny, refine int) []thermal.Rect {
	base := fp.Grid(nx, ny)
	if refine <= 0 {
		return base
	}
	if refine > len(base) {
		refine = len(base)
	}
	type scored struct {
		i int
		d float64
	}
	sc := make([]scored, len(base))
	for i, c := range base {
		sc[i] = scored{i, fp.maxDensityIn(c)}
	}
	sort.Slice(sc, func(a, b int) bool {
		if sc[a].d != sc[b].d {
			return sc[a].d > sc[b].d
		}
		return sc[a].i < sc[b].i
	})
	pickSet := make(map[int]bool, refine)
	for _, s := range sc[:refine] {
		pickSet[s.i] = true
	}
	i := -1
	return thermal.RefineGrid(base, func(thermal.Rect) bool {
		i++
		return pickSet[i]
	})
}

// GridTargetCells returns a multi-resolution grid with exactly target
// cells when reachable (target = nx² + 3k for the square base grid nx
// chosen), or the closest achievable count. The paper's experiment uses a
// 28-cell floorplan (4×4 base, 4 refined cells) and a 660-cell one (21×21
// base, 73 refined cells).
func (fp *Floorplan) GridTargetCells(target int) []thermal.Rect {
	bestNx, bestK, bestErr := 1, 0, math.MaxInt
	for nx := 2; nx*nx <= target; nx++ {
		rem := target - nx*nx
		k := rem / 3
		if k > nx*nx {
			continue
		}
		if e := rem % 3; e < bestErr || (e == bestErr && nx > bestNx) {
			bestErr, bestNx, bestK = e, nx, k
		}
	}
	return fp.GridRefined(bestNx, bestNx, bestK)
}

// PowerMap distributes per-component power onto thermal cells by area
// overlap: a cell receives, from each component, the component's power
// scaled by the covered fraction of the component. In the other direction
// it reads each component's sensor from the same overlaps.
type PowerMap struct {
	nCells  int
	entries [][]mapEntry
	sensors []sensor // one per component
}

type mapEntry struct {
	comp int
	frac float64
}

// sensor is one component's covering cells, in ascending cell order, with
// each cell's raw overlap area and their sum.
type sensor struct {
	cells []sensorCell
	area  float64
}

type sensorCell struct {
	cell int
	area float64
}

// NewPowerMap precomputes the overlaps between the floorplan's components
// and the given thermal cells.
func NewPowerMap(fp *Floorplan, cells []thermal.Rect) *PowerMap {
	pm := &PowerMap{nCells: len(cells), entries: make([][]mapEntry, len(cells)),
		sensors: make([]sensor, len(fp.Components))}
	for ci, cell := range cells {
		for ki := range fp.Components {
			r := fp.Components[ki].Rect
			if ov := r.Overlap(cell); ov > 0 {
				pm.entries[ci] = append(pm.entries[ci], mapEntry{ki, ov / r.Area()})
				s := &pm.sensors[ki]
				s.cells = append(s.cells, sensorCell{ci, ov})
				s.area += ov
			}
		}
	}
	return pm
}

// CellPowers converts per-component powers (W, indexed like
// Floorplan.Components) into per-cell injected powers. out must have one
// entry per cell; it is overwritten and returned.
func (pm *PowerMap) CellPowers(compPowers []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, pm.nCells)
	}
	for i := range out {
		out[i] = 0
	}
	for ci, ents := range pm.entries {
		for _, e := range ents {
			out[ci] += compPowers[e.comp] * e.frac
		}
	}
	return out
}

// ComponentTemps converts per-cell temperatures into per-component sensor
// readings: ComponentTemp of every component from the overlaps found at
// set-up, summed in the same order, so the readings are bit-identical. out
// must have one entry per component; it is overwritten and returned.
func (pm *PowerMap) ComponentTemps(temps, out []float64) []float64 {
	for ki := range pm.sensors {
		s := &pm.sensors[ki]
		if s.area == 0 {
			out[ki] = 0
			continue
		}
		var tsum float64
		for _, c := range s.cells {
			tsum += c.area * temps[c.cell]
		}
		out[ki] = tsum / s.area
	}
	return out
}

// ComponentTemp estimates a component's sensor reading as the area-weighted
// average of the cells covering it, intersecting the component with every
// cell. PowerMap.ComponentTemps is the table-driven form the loop runs.
func ComponentTemp(fp *Floorplan, cells []thermal.Rect, temps []float64, comp int) float64 {
	var wsum, tsum float64
	r := fp.Components[comp].Rect
	for ci, cell := range cells {
		if ov := r.Overlap(cell); ov > 0 {
			wsum += ov
			tsum += ov * temps[ci]
		}
	}
	if wsum == 0 {
		return 0
	}
	return tsum / wsum
}
