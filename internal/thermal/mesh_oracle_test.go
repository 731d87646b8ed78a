package thermal

import (
	"fmt"
	"math"
)

// newModelAllPairs is the reference mesh builder NewModel replaced: it
// tests every cell pair for overlap and lateral contact. The differential
// tests hold NewModel's edge list, CSR index and first error to it.
func newModelAllPairs(siCells, cuCells []Rect, opt Options) (*Model, error) {
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
	for i, a := range siCells {
		for _, b := range siCells[i+1:] {
			if a.Overlap(b) > geomEps*geomEps {
				return nil, fmt.Errorf("thermal: overlapping silicon cells %v %v", a, b)
			}
		}
	}
	for i, a := range cuCells {
		for _, b := range cuCells[i+1:] {
			if a.Overlap(b) > geomEps*geomEps {
				return nil, fmt.Errorf("thermal: overlapping copper cells %v %v", a, b)
			}
		}
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

	var edges []edgeRec
	// Lateral edges within each sub-layer.
	addLateral := func(base int, grid []Rect, thick float64) {
		for i := 0; i < len(grid); i++ {
			for j := i + 1; j < len(grid); j++ {
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
	}
	for z := 0; z < opt.NzSi; z++ {
		addLateral(z*len(siCells), siCells, tSi)
	}
	cuBase := opt.NzSi * len(siCells)
	for z := 0; z < opt.NzCu; z++ {
		addLateral(cuBase+z*len(cuCells), cuCells, tCu)
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

// CompareBuilders builds one mesh with NewModel and with the all-pairs
// oracle and describes the first difference: in the error text, the edge
// list, the CSR incidence index, the kernel layout and its rate split,
// capacitances or convection paths. It also checks the layout's slot order
// against the oracle's own time constants: fine cells (τ below 2·τ_min)
// first when the rates split, then by neighbour count. It returns "" when
// the two models are bit-identical and the order holds.
func CompareBuilders(si, cu []Rect, opt Options) string {
	got, gotErr := NewModel(si, cu, opt)
	want, wantErr := newModelAllPairs(si, cu, opt)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
		}
		return ""
	}
	if got.nVarEdges != want.nVarEdges {
		return fmt.Sprintf("nVarEdges %d, oracle %d", got.nVarEdges, want.nVarEdges)
	}
	if got.fineSlices != want.fineSlices {
		return fmt.Sprintf("fineSlices %d, oracle %d", got.fineSlices, want.fineSlices)
	}
	if d := slotOrder(want); d != "" {
		return d
	}
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"edgeA", got.edgeA, want.edgeA},
		{"edgeB", got.edgeB, want.edgeB},
		{"nbrStart", got.nbrStart, want.nbrStart},
		{"nbrCell", got.nbrCell, want.nbrCell},
		{"nbrEdge", got.nbrEdge, want.nbrEdge},
		{"perm", got.perm, want.perm},
		{"ell.idx", got.ell.idx, want.ell.idx},
		{"ell.rows", got.ell.rows, want.ell.rows},
	} {
		if d := firstDiff(c.got, c.want, func(a, b int32) bool { return a == b }); d != "" {
			return c.name + ": " + d
		}
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"edgeArea", got.edgeArea, want.edgeArea},
		{"edgeDa", got.edgeDa, want.edgeDa},
		{"edgeDb", got.edgeDb, want.edgeDb},
		{"edgeG", got.edgeG, want.edgeG},
		{"ell.g", got.ell.g, want.ell.g},
		{"ell.negConv", got.ell.negConv, want.ell.negConv},
		{"ell.invCap", got.ell.invCap, want.ell.invCap},
		{"capC", got.capC, want.capC},
		{"convG", got.convG, want.convG},
	} {
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if d := firstDiff(c.got, c.want, same); d != "" {
			return c.name + ": " + d
		}
	}
	if d := firstDiff(got.convIdx, want.convIdx, func(a, b int) bool { return a == b }); d != "" {
		return "convIdx: " + d
	}
	return ""
}

func firstDiff[T any](got, want []T, same func(a, b T) bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !same(got[i], want[i]) {
			return fmt.Sprintf("[%d] = %v, oracle %v", i, got[i], want[i])
		}
	}
	return ""
}

// slotOrder describes the first pair of adjacent slots out of (rate class,
// neighbour count) order, the classes taken from m's time constants.
func slotOrder(m *Model) string {
	tauMin := TauMin(m)
	key := func(c int32) (coarse bool, deg int32) {
		coarse = m.fineSlices > 0 && m.capC[c]/m.sumG[c] >= 2*tauMin
		return coarse, m.nbrStart[c+1] - m.nbrStart[c]
	}
	for p := 1; p < len(m.perm); p++ {
		c0, d0 := key(m.perm[p-1])
		c1, d1 := key(m.perm[p])
		if c0 && !c1 || c0 == c1 && d0 > d1 {
			return fmt.Sprintf("slot %d (coarse %v, %d neighbours) before slot %d (coarse %v, %d neighbours)",
				p-1, c0, d0, p, c1, d1)
		}
	}
	return ""
}
